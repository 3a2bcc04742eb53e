package main

import (
	"fmt"
	"math"
	"time"

	"espresso/internal/cluster"
	"espresso/internal/compress"
	"espresso/internal/core"
	"espresso/internal/cost"
	"espresso/internal/ddl"
	"espresso/internal/gen"
	"espresso/internal/model"
	"espresso/internal/strategy"
)

// simSystem is one training system of sim-iter: a compressor, the
// strategy Espresso selected for it (FP32: the uncompressed baseline
// strategy), and the executor that moves the bytes.
type simSystem struct {
	name  string
	x     *ddl.Executor
	s     *strategy.Strategy
	ratio float64 // predicted iteration time ÷ FP32's
	iters int
}

// simSpecs are sim-iter's systems, in the order iterations cycle
// through them. The FP32 iterations are the plain baseline: compressor
// changes must leave them alone.
var simSpecs = []compress.Spec{
	{ID: compress.FP32},
	{ID: compress.RandomK, Ratio: 0.01},
	{ID: compress.DGC, Ratio: 0.01},
	{ID: compress.EFSignSGD},
	{ID: compress.TopK, Ratio: 0.01},
}

// simIterWL is the real-bytes data plane with the Selector out of the
// loop: LSTM's ten tensors on 2 machines × 2 GPUs over PCIe, each
// iteration synchronising every tensor and then checking that all GPUs
// hold the same aggregate, as espresso-sim does.
type simIterWL struct {
	m       *model.Model
	c       *cluster.Cluster
	grads   [][][]float32 // [tensor][gpu][element]
	systems []simSystem
}

func simCluster() *cluster.Cluster {
	c := cluster.PCIeTestbed(2)
	c.GPUsPerMachine = 2
	return c
}

func newSimIter(seed uint64) (*simIterWL, error) {
	w := &simIterWL{m: model.LSTM(), c: simCluster()}
	r := gen.New(seed)
	w.grads = make([][][]float32, len(w.m.Tensors))
	for t := range w.grads {
		w.grads[t] = make([][]float32, w.c.TotalGPUs())
		for g := range w.grads[t] {
			w.grads[t][g] = normals(r, simElems)
		}
	}
	var fp32 time.Duration
	for _, spec := range simSpecs {
		cm, err := cost.NewModels(w.c, spec)
		if err != nil {
			return nil, err
		}
		sys := simSystem{name: spec.ID.String()}
		if spec.ID == compress.FP32 {
			sys.s = strategy.Uniform(len(w.m.Tensors), strategy.NoCompression(w.c))
			if fp32, err = predict(w.m, w.c, cm, sys.s); err != nil {
				return nil, err
			}
			sys.ratio = 1
		} else {
			var rep *core.Report
			if sys.s, rep, err = core.NewSelector(w.m, w.c, cm).Select(); err != nil {
				return nil, err
			}
			sys.ratio = float64(rep.Iter) / float64(fp32)
		}
		if sys.x, err = ddl.NewExecutor(w.c, spec); err != nil {
			return nil, err
		}
		w.systems = append(w.systems, sys)
	}
	// Warm-up: one iteration per system, which also allocates each
	// executor's error-feedback residuals.
	for i := range w.systems {
		if err := w.iterate(i, 0, nil, -1); err != nil {
			return nil, err
		}
		w.systems[i].x.ResetTraffic()
	}
	return w, nil
}

// normals draws n standard-normal float32s (Box–Muller on the seeded
// stream).
func normals(r *gen.Rand, n int) []float32 {
	out := make([]float32, n)
	for i := 0; i < n; i += 2 {
		rad := math.Sqrt(-2 * math.Log(1-r.Float64())) // 1-u is in (0, 1]
		sin, cos := math.Sincos(2 * math.Pi * r.Float64())
		out[i] = float32(rad * cos)
		if i+1 < n {
			out[i+1] = float32(rad * sin)
		}
	}
	return out
}

// iterate runs one training iteration's gradient synchronisation on
// system si and checks that every GPU ends with the same aggregate. rec
// (nil in the untraced run) gets one span per SyncTensor call under
// parent.
func (w *simIterWL) iterate(si, it int, rec *recorder, parent int) error {
	sys := &w.systems[si]
	for t, tensor := range w.m.Tensors {
		sp := rec.begin("ddl.sync_tensor", parent)
		out, err := sys.x.SyncTensor(tensor.Name, w.grads[t], sys.s.PerTensor[t], uint64(it))
		rec.end(sp)
		if err != nil {
			return err
		}
		for g := 1; g < len(out); g++ {
			for j, v := range out[g] {
				if v != out[0][j] {
					return fmt.Errorf("%s iteration %d tensor %s: GPUs 0 and %d disagree at element %d",
						sys.name, it, tensor.Name, g, j)
				}
			}
		}
	}
	return nil
}

func (w *simIterWL) op(_, i int) (time.Duration, error) { return w.run(i, nil) }

// run is operation i: one iteration of system i mod 5.
func (w *simIterWL) run(i int, rec *recorder) (time.Duration, error) {
	si := i % len(w.systems)
	sys := &w.systems[si]
	rec.operation(i)
	sp := rec.begin("ddl.iteration."+sys.name, -1)
	t0 := time.Now()
	err := w.iterate(si, 1+i/len(w.systems), rec, sp)
	lat := time.Since(t0)
	rec.end(sp)
	if err == nil {
		sys.iters++
	}
	return lat, err
}

func (w *simIterWL) counters() counters {
	var k counters
	for i := range w.systems {
		sys := &w.systems[i]
		k.TrafficBytes += sys.x.Traffic().Total()
		k.iterRatio += sys.ratio * float64(sys.iters)
		k.iterRatioN += sys.iters
	}
	return k
}

func (w *simIterWL) close() error { return nil }
