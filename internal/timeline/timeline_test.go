package timeline

import (
	"strings"
	"testing"
	"time"

	"espresso/internal/cluster"
	"espresso/internal/compress"
	"espresso/internal/cost"
	"espresso/internal/model"
	"espresso/internal/strategy"
)

func newEngine(t testing.TB, m *model.Model, c *cluster.Cluster, spec compress.Spec) *Engine {
	t.Helper()
	cm, err := cost.NewModels(c, spec)
	if err != nil {
		t.Fatal(err)
	}
	return New(m, c, cm)
}

// commBound is a small model whose tensors are large relative to compute:
// three 64 MB tensors, 1 ms of backward each.
func commBound() *model.Model {
	ms := time.Millisecond
	return model.Synthetic("commbound",
		[]int{16 << 20, 16 << 20, 16 << 20},
		[]time.Duration{ms, ms, ms}, 2*ms)
}

// computeBound has tiny tensors and long compute.
func computeBound() *model.Model {
	ms := time.Millisecond
	return model.Synthetic("computebound",
		[]int{1 << 10, 1 << 10, 1 << 10},
		[]time.Duration{20 * ms, 20 * ms, 20 * ms}, 10*ms)
}

func dgc() compress.Spec { return compress.Spec{ID: compress.DGC, Ratio: 0.01} }

// iterOf is e.IterTime(s) for strategies the test knows are valid.
func iterOf(t testing.TB, e *Engine, s *strategy.Strategy) time.Duration {
	t.Helper()
	d, err := e.IterTime(s)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func fp32Strategy(m *model.Model, c *cluster.Cluster) *strategy.Strategy {
	return strategy.Uniform(len(m.Tensors), strategy.NoCompression(c))
}

func TestFP32IterAtLeastCompute(t *testing.T) {
	c := cluster.NVLinkTestbed(8)
	m := commBound()
	e := newEngine(t, m, c, dgc())
	r, err := e.Evaluate(fp32Strategy(m, c))
	if err != nil {
		t.Fatal(err)
	}
	if r.Iter < m.IterTime() {
		t.Fatalf("iter %v below compute-only %v", r.Iter, m.IterTime())
	}
	if r.Makespan <= m.Backward() {
		t.Fatalf("comm-bound model should have exposed communication: makespan %v, backward %v",
			r.Makespan, m.Backward())
	}
}

func TestComputeBoundFullyOverlaps(t *testing.T) {
	c := cluster.NVLinkTestbed(8)
	m := computeBound()
	e := newEngine(t, m, c, dgc())
	r, err := e.Evaluate(fp32Strategy(m, c))
	if err != nil {
		t.Fatal(err)
	}
	// Tiny tensors' communication hides under the 60 ms of compute,
	// except the final tensor's own tail.
	slack := r.Iter - m.IterTime()
	if slack > 2*time.Millisecond {
		t.Fatalf("compute-bound model exposed %v of communication", slack)
	}
}

// Figure 2(b): compressing the tensor whose communication is exposed
// shortens the iteration on a communication-bound job.
func TestCompressingExposedTensorHelps(t *testing.T) {
	c := cluster.NVLinkTestbed(8)
	m := commBound()
	e := newEngine(t, m, c, dgc())
	base := iterOf(t, e, fp32Strategy(m, c))

	s := fp32Strategy(m, c)
	s.PerTensor[2] = interCompressedOption()
	got := iterOf(t, e, s)
	if got >= base {
		t.Fatalf("compressing the last tensor did not help: %v >= %v", got, base)
	}
}

// interCompressedOption compresses the inter-machine phase (the HiPress
// shape): reduce-scatter intra, compressed allgather inter and intra,
// decompress at the end.
func interCompressedOption() strategy.Option {
	return strategy.Option{Hier: true, Steps: []strategy.Step{
		{Act: strategy.Comm, Routine: strategy.ReduceScatter, Scope: strategy.Intra},
		{Act: strategy.Comp},
		{Act: strategy.Comm, Routine: strategy.Allgather, Scope: strategy.Inter, Compressed: true},
		{Act: strategy.Comm, Routine: strategy.Allgather, Scope: strategy.Intra, Compressed: true, Second: true},
		{Act: strategy.Decomp},
	}}
}

// earlyCompressOption compresses before any communication, so the
// compression kernel contends with the remaining backward computation.
func earlyCompressOption() strategy.Option {
	return strategy.Option{Hier: true, Steps: []strategy.Step{
		{Act: strategy.Comp},
		{Act: strategy.Comm, Routine: strategy.Alltoall, Scope: strategy.Intra, Compressed: true},
		{Act: strategy.Decomp},
		{Act: strategy.Comm, Routine: strategy.Allreduce, Scope: strategy.Inter},
		{Act: strategy.Comm, Routine: strategy.Allgather, Scope: strategy.Intra, Second: true},
	}}
}

// Figure 2(c)/§5.2.3: compressing everything on a compute-bound job harms
// performance because GPU compression contends with backward kernels.
func TestOverCompressionHurtsComputeBound(t *testing.T) {
	c := cluster.PCIeTestbed(8)
	m := computeBound()
	e := newEngine(t, m, c, dgc())
	base := iterOf(t, e, fp32Strategy(m, c))

	var compOpt strategy.Option
	for _, o := range strategy.EnumerateGPU(c) {
		if o.Hier && o.AllOn(cost.GPU) && o.CompOps() >= 4 {
			compOpt = o
			break
		}
	}
	s := strategy.Uniform(len(m.Tensors), compOpt)
	got := iterOf(t, e, s)
	if got <= base {
		t.Fatalf("over-compression should hurt a compute-bound job: %v <= %v", got, base)
	}
}

func TestFreeCompressionNeverSlower(t *testing.T) {
	c := cluster.NVLinkTestbed(8)
	m := commBound()
	e := newEngine(t, m, c, dgc())
	free := New(m, c, e.Cost.WithFreeCompression())
	for _, o := range strategy.EnumerateGPU(c) {
		s := strategy.Uniform(len(m.Tensors), o)
		if iterOf(t, free, s) > iterOf(t, e, s) {
			t.Fatalf("free compression slower for %v", o)
		}
	}
}

// Every enumerated option must produce a valid, completing timeline whose
// iteration time is at least the compute time.
func TestAllOptionsEvaluateProperty(t *testing.T) {
	c := cluster.NVLinkTestbed(4)
	m := commBound()
	e := newEngine(t, m, c, compress.Spec{ID: compress.EFSignSGD})
	floor := m.IterTime()
	for _, o := range strategy.Enumerate(c) {
		s := strategy.Uniform(len(m.Tensors), o)
		r, err := e.Evaluate(s)
		if err != nil {
			t.Fatalf("%v: %v", o, err)
		}
		if r.Iter < floor {
			t.Fatalf("%v: iter %v below compute floor %v", o, r.Iter, floor)
		}
	}
}

func TestBubbleDetection(t *testing.T) {
	// Tensor 0 is tiny and communicates immediately; tensor 1 arrives
	// only after a long compute gap — tensor 0 is communicated before a
	// bubble.
	ms := time.Millisecond
	m := model.Synthetic("bubbly",
		[]int{1 << 20, 16 << 20},
		[]time.Duration{1 * ms, 50 * ms}, 0)
	c := cluster.NVLinkTestbed(8)
	e := newEngine(t, m, c, dgc())
	r, err := e.Evaluate(fp32Strategy(m, c))
	if err != nil {
		t.Fatal(err)
	}
	bb := r.TensorsBeforeBubbles()
	if !bb[0] {
		t.Fatalf("tensor 0 should be before a bubble: %v", bb)
	}
	if bb[1] {
		t.Fatalf("last tensor cannot be before a bubble: %v", bb)
	}
}

func TestNoBubblesWhenBackToBack(t *testing.T) {
	ms := time.Millisecond
	// Communication far slower than compute: the NIC never idles. The
	// NVLink testbed keeps the NIC as the unambiguous bottleneck.
	m := model.Synthetic("dense",
		[]int{32 << 20, 32 << 20, 32 << 20},
		[]time.Duration{ms, ms, ms}, 0)
	c := cluster.NVLinkTestbed(8)
	e := newEngine(t, m, c, dgc())
	r, err := e.Evaluate(fp32Strategy(m, c))
	if err != nil {
		t.Fatal(err)
	}
	if bb := r.TensorsBeforeBubbles(); len(bb) != 0 {
		t.Fatalf("back-to-back communication should have no bubbles: %v", bb)
	}
}

func TestStrategyLengthMismatch(t *testing.T) {
	c := cluster.NVLinkTestbed(8)
	m := commBound()
	e := newEngine(t, m, c, dgc())
	if _, err := e.Evaluate(strategy.Uniform(99, strategy.NoCompression(c))); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func TestInvalidOptionRejected(t *testing.T) {
	c := cluster.NVLinkTestbed(8)
	m := commBound()
	e := newEngine(t, m, c, dgc())
	bad := strategy.Uniform(len(m.Tensors), strategy.Option{})
	if _, err := e.Evaluate(bad); err == nil {
		t.Fatal("empty option accepted")
	}
}

func TestGanttRendering(t *testing.T) {
	c := cluster.NVLinkTestbed(8)
	m := commBound()
	e := newEngine(t, m, c, dgc())
	r, err := e.Evaluate(fp32Strategy(m, c))
	if err != nil {
		t.Fatal(err)
	}
	g := r.Gantt()
	for _, want := range []string{"gpu", "inter", "backward", "ms"} {
		if !strings.Contains(g, want) {
			t.Errorf("Gantt missing %q:\n%s", want, g)
		}
	}
}

func TestCommTimeDropsWithCompression(t *testing.T) {
	c := cluster.NVLinkTestbed(8)
	m := commBound()
	e := newEngine(t, m, c, dgc())
	plain, pt, err := e.Times(0, strategy.NoCompression(c))
	if err != nil {
		t.Fatal(err)
	}
	if pt != 0 {
		t.Fatalf("FP32 option has compression time %v", pt)
	}
	var compOpt strategy.Option
	for _, o := range strategy.EnumerateGPU(c) {
		if o.Hier && o.Compressed() {
			compOpt = o
			break
		}
	}
	compressed, ct, err := e.Times(0, compOpt)
	if err != nil {
		t.Fatal(err)
	}
	if compressed >= plain {
		t.Fatalf("compressed comm time %v >= plain %v (option %v)", compressed, plain, compOpt)
	}
	if ct <= 0 {
		t.Fatal("compression option has zero compression time")
	}
}

// The priority scheduler must not reorder backward kernels.
func TestBackwardKernelsStayOrdered(t *testing.T) {
	c := cluster.NVLinkTestbed(8)
	m := commBound()
	e := newEngine(t, m, c, dgc())
	r, err := e.Evaluate(fp32Strategy(m, c))
	if err != nil {
		t.Fatal(err)
	}
	var prevEnd time.Duration
	next := 0
	for _, op := range r.Ops {
		if op.Res == ResGPU && op.Step == -1 {
			if op.Tensor != next {
				t.Fatalf("backward order broken: got T%d, want T%d", op.Tensor, next)
			}
			if op.Span.Start < prevEnd {
				t.Fatalf("backward kernels overlap")
			}
			prevEnd = op.Span.End
			next++
		}
	}
	if next != len(m.Tensors) {
		t.Fatalf("saw %d backward kernels", next)
	}
}

// CPU compression must not delay backward kernels (the motivation for CPU
// offloading, §4.4.3), while GPU compression does.
func TestCPUCompressionDoesNotBlockBackward(t *testing.T) {
	c := cluster.PCIeTestbed(8)
	ms := time.Millisecond
	m := model.Synthetic("m", []int{32 << 20, 1 << 10}, []time.Duration{ms, 10 * ms}, 0)
	gpuOpt := earlyCompressOption()
	cpuOpt := gpuOpt.WithDevice(cost.CPU)

	lastBackwardEnd := func(opt strategy.Option) time.Duration {
		e := newEngine(t, m, c, dgc())
		s := fp32Strategy(m, c)
		s.PerTensor[0] = opt
		r, err := e.Evaluate(s)
		if err != nil {
			t.Fatal(err)
		}
		var end time.Duration
		for _, op := range r.Ops {
			if op.Res == ResGPU && op.Step == -1 && op.Span.End > end {
				end = op.Span.End
			}
		}
		return end
	}
	gpuEnd := lastBackwardEnd(gpuOpt)
	cpuEnd := lastBackwardEnd(cpuOpt)
	if cpuEnd >= gpuEnd {
		t.Fatalf("CPU offloading should unblock backward: cpu %v >= gpu %v", cpuEnd, gpuEnd)
	}
	if cpuEnd != 11*ms {
		t.Fatalf("backward with CPU compression = %v, want pure compute 11ms", cpuEnd)
	}
}
