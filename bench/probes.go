package main

import (
	"runtime"
	"time"

	"espresso/internal/chaos"
	"espresso/internal/cluster"
	"espresso/internal/collective"
	"espresso/internal/compress"
	"espresso/internal/core"
	"espresso/internal/cost"
	"espresso/internal/gen"
	"espresso/internal/model"
	"espresso/internal/netsim"
	"espresso/internal/sim"
	"espresso/internal/strategy"
	"espresso/internal/timeline"
)

// timeP50 calls fn reps times and returns the median duration.
func timeP50(reps int, fn func() error) (time.Duration, error) {
	d := make([]time.Duration, reps)
	for i := range d {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		d[i] = time.Since(t0)
	}
	return p50(d), nil
}

// mbPerS is dense megabytes per second.
func mbPerS(bytes int, d time.Duration) float64 { return float64(bytes) / 1e6 / d.Seconds() }

// probes measures the layers no workload isolates, each through its
// public functions on a fixed input: budgets for the layer, not parts
// of an end-to-end number.
func (t *tracedRun) probes(seed uint64) error {
	for _, probe := range []func(uint64) error{
		t.probeCompress, t.probeCollective, t.probeSimulators, t.probeCase, t.probeVGG16,
	} {
		if err := probe(seed); err != nil {
			return err
		}
	}
	return nil
}

// probeElems is the length of the vector the compressor kernels are
// timed on. (A variable so the smoke test can shorten it.)
var probeElems = 1 << 20

// probeSpecs are the compressor kernels measured: sim-iter's four plus
// the two quantizers only generated cases select.
var probeSpecs = []compress.Spec{
	{ID: compress.RandomK, Ratio: 0.01},
	{ID: compress.DGC, Ratio: 0.01},
	{ID: compress.TopK, Ratio: 0.01},
	{ID: compress.EFSignSGD},
	{ID: compress.QSGD},
	{ID: compress.TernGrad},
}

// probeCompress is each compressor's kernel throughput on a 1 Mi-element
// normal vector, and the wire codec's on the sign-quantized payload of
// it (the largest: one bit per element).
func (t *tracedRun) probeCompress(seed uint64) error {
	n := probeElems
	x := normals(gen.New(seed), n)
	out := make([]float32, n)
	var signs *compress.Payload
	for _, spec := range probeSpecs {
		c, err := compress.New(spec)
		if err != nil {
			return err
		}
		p := &compress.Payload{} // sized by the first of the three calls, which the median drops
		d, err := timeP50(3, func() error { c.CompressInto(p, x, seed); return nil })
		if err != nil {
			return err
		}
		t.metrics["compress."+spec.ID.String()+".compress_mb_s"] = mbPerS(4*n, d)
		if d, err = timeP50(3, func() error { return c.Decompress(p, out) }); err != nil {
			return err
		}
		t.metrics["compress."+spec.ID.String()+".decompress_mb_s"] = mbPerS(4*n, d)
		if spec.ID == compress.EFSignSGD {
			signs = p
		}
	}
	var buf []byte
	d, err := timeP50(20, func() error { buf = compress.Encode(signs); return nil })
	if err != nil {
		return err
	}
	t.metrics["compress.wire_encode_mb_s"] = mbPerS(len(buf), d)
	if d, err = timeP50(20, func() error { _, err := compress.Decode(buf); return err }); err != nil {
		return err
	}
	t.metrics["compress.wire_decode_mb_s"] = mbPerS(len(buf), d)
	return nil
}

// probeCollective is the in-memory collectives on four nodes of 256 Ki
// elements: megabytes of node buffers reduced per second.
func (t *tracedRun) probeCollective(seed uint64) error {
	const nodes, n = 4, 1 << 18
	r := gen.New(seed)
	src := make([][]float32, nodes)
	for i := range src {
		src[i] = normals(r, n)
	}
	data := make([][]float32, nodes)
	for i := range data {
		data[i] = make([]float32, n)
	}
	fresh := func() {
		for i := range data {
			copy(data[i], src[i])
		}
	}
	timed := func(fn func() error) (time.Duration, error) {
		d := make([]time.Duration, 5)
		for i := range d {
			fresh()
			t0 := time.Now()
			if err := fn(); err != nil {
				return 0, err
			}
			d[i] = time.Since(t0)
		}
		return p50(d), nil
	}
	d, err := timed(func() error { return collective.Allreduce(data) })
	if err != nil {
		return err
	}
	t.metrics["collective.allreduce_mb_s"] = mbPerS(4*n*nodes, d)
	d, err = timed(func() error {
		bounds, err := collective.ReduceScatter(data)
		if err != nil {
			return err
		}
		return collective.AllgatherShards(data, bounds)
	})
	if err != nil {
		return err
	}
	t.metrics["collective.reduce_scatter_allgather_mb_s"] = mbPerS(4*n*nodes, d)

	c := compress.MustNew(compress.Spec{ID: compress.DGC, Ratio: 0.01})
	in := make([][]*compress.Payload, nodes)
	for i := range in {
		in[i] = []*compress.Payload{c.Compress(src[i], seed)}
	}
	if d, err = timeP50(50, func() error { collective.AllgatherPayloads(in); return nil }); err != nil {
		return err
	}
	t.metrics["collective.allgather_payloads_us"] = us(d)
	return nil
}

// flapPlan is configs/chaos-flap.json, inlined so the benchmark reads
// nothing outside its own directory.
const flapPlan = `{
 "seed": 42, "deadline": "30s",
 "retry": {"timeout": "200us", "backoff": 2.0, "max_rto": "5ms", "max_attempts": 16},
 "monitor": {"factor": 1.5, "consecutive": 3},
 "faults": [
  {"kind": "flap", "src": -1, "scale": 0.25, "start": "0s", "duration": "2s", "period": "10ms"},
  {"kind": "loss", "rate": 0.05, "start": "0s", "duration": "2s"}
 ]
}`

// probeSimulators is the three simulators no workload drives: the
// message-level network, the event kernel under it, and a chaos
// iteration (lstm on two machines under the flap plan).
func (t *tracedRun) probeSimulators(uint64) error {
	nw, err := netsim.New(8, 12*time.Microsecond, 10e9)
	if err != nil {
		return err
	}
	d, err := timeP50(20, func() error {
		nw.Reset()
		_, err := nw.RingAllreduce(64 << 20)
		return err
	})
	if err != nil {
		return err
	}
	t.metrics["netsim.ring_allreduce_us"] = us(d)

	const events = 200000
	eng := sim.NewEngine()
	left := events
	var tick func()
	tick = func() {
		if left--; left > 0 {
			eng.After(time.Microsecond, tick)
		}
	}
	eng.After(0, tick)
	t0 := time.Now()
	eng.Run()
	t.metrics["sim.events_per_s"] = float64(eng.Steps()) / time.Since(t0).Seconds()

	plan, err := chaos.Parse([]byte(flapPlan))
	if err != nil {
		return err
	}
	m, c, spec := model.LSTM(), cluster.PCIeTestbed(2), compress.Spec{ID: compress.DGC, Ratio: 0.01}
	cm, err := cost.NewModels(c, spec)
	if err != nil {
		return err
	}
	s, _, err := core.NewSelector(m, c, cm).Select()
	if err != nil {
		return err
	}
	runner, err := chaos.NewRunner(m, c, spec, s, plan)
	if err != nil {
		return err
	}
	it := 0
	if d, err = timeP50(16, func() error { _, err := runner.RunIteration(it); it++; return err }); err != nil {
		return err
	}
	t.metrics["chaos.run_iteration_us"] = us(d)
	return nil
}

// probeCase splits serve.BuildCase into its two halves over a stretch
// of the seed's case stream.
func (t *tracedRun) probeCase(seed uint64) error {
	r := gen.New(seed)
	const n = 200
	genD, costD := make([]time.Duration, n), make([]time.Duration, n)
	for i := 0; i < n; i++ {
		s := r.Uint64()
		t0 := time.Now()
		c := gen.Generate(s, gen.Config{})
		genD[i] = time.Since(t0)
		t0 = time.Now()
		if _, err := cost.NewModels(c.Cluster, c.Spec); err != nil {
			return err
		}
		costD[i] = time.Since(t0)
	}
	t.metrics["gen.generate_us"] = us(p50(genD))
	t.metrics["cost.new_models_us"] = us(p50(costD))

	d, err := timeP50(20, func() error { strategy.Enumerate(cluster.NVLinkTestbed(8)); return nil })
	t.metrics["strategy.enumerate_us"] = us(d)
	return err
}

// probeVGG16 takes the Selector and the timeline engine apart on the
// largest zoo job of select-large (vgg16, NVLink testbed, dgc 0.01).
func (t *tracedRun) probeVGG16(uint64) error {
	m, c, spec := model.VGG16(), cluster.NVLinkTestbed(8), compress.Spec{ID: compress.DGC, Ratio: 0.01}
	cm, err := cost.NewModels(c, spec)
	if err != nil {
		return err
	}

	// One probe of Algorithm 1's inner loop: swap one tensor's option,
	// re-run the timeline, ops not recorded.
	eng := timeline.New(m, c, cm)
	eng.RecordOps = false
	base := strategy.Uniform(len(m.Tensors), strategy.NoCompression(c))
	if err := eng.Prepare(base); err != nil {
		return err
	}
	opts := strategy.EnumerateGPU(c)
	const probes = 20000
	t0 := time.Now()
	for i := 0; i < probes; i++ {
		if err := eng.SetOption(i%len(m.Tensors), opts[i%len(opts)]); err != nil {
			return err
		}
		if _, err := eng.Run(); err != nil {
			return err
		}
	}
	t.metrics["timeline.probe_ns"] = float64(time.Since(t0)) / probes

	// Selection, sequential and fanned out; the result seeds the rest.
	var selected *strategy.Strategy
	selectWith := func(parallelism int) (time.Duration, error) {
		return timeP50(3, func() error {
			sel := core.NewSelector(m, c, cm)
			sel.Parallelism = parallelism
			var err error
			selected, _, err = sel.Select()
			return err
		})
	}
	seq, err := selectWith(1)
	if err != nil {
		return err
	}
	par, err := selectWith(runtime.NumCPU())
	if err != nil {
		return err
	}
	t.metrics["core.select_parallel_speedup"] = float64(seq) / float64(par)

	rec := timeline.New(m, c, cm)
	d, err := timeP50(20, func() error { _, err := rec.Evaluate(selected); return err })
	if err != nil {
		return err
	}
	t.metrics["timeline.evaluate_us"] = us(d)

	// Algorithm 2 alone, on Algorithm 1's output (Table 6).
	sel := core.NewSelector(m, c, cm)
	gpuOnly, err := sel.Algorithm1(nil)
	if err != nil {
		return err
	}
	if d, err = timeP50(3, func() error { _, err := sel.OffloadCPU(gpuOnly, nil); return err }); err != nil {
		return err
	}
	t.metrics["core.offload_ms"] = ms(d)

	// Warm re-selection after the fabric degrades: what the chaos
	// controller pays when inter-machine bandwidth drops to a quarter.
	slow, err := c.WithBandwidthScale(1, 0.25)
	if err != nil {
		return err
	}
	slowCM, err := cost.NewModels(slow, spec)
	if err != nil {
		return err
	}
	d, err = timeP50(3, func() error {
		_, _, err := core.NewSelector(m, slow, slowCM).SelectFrom(selected)
		return err
	})
	t.metrics["core.warm_reselect_ms"] = ms(d)
	return err
}
