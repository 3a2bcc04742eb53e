package oracle

import (
	"testing"
	"time"

	"espresso/internal/cluster"
	"espresso/internal/compress"
	"espresso/internal/cost"
	"espresso/internal/gen"
	"espresso/internal/model"
	"espresso/internal/strategy"
)

// The α–β formulas, checked against hand-computed values on a link with
// round numbers: α = 1µs, β = 1 GB/s, so 1000 bytes serialize in 1µs.
func TestCollectiveFormulas(t *testing.T) {
	l := link{alpha: time.Microsecond, bps: 1e9}
	us := time.Microsecond

	cases := []struct {
		name string
		got  time.Duration
		want time.Duration
	}{
		// ring: 2(n-1) steps of b/n = 6 * (1µs + 1µs); tree: 2*2 rounds of
		// 4µs payload = 4 * 5µs = 20µs; ring wins.
		{"allreduce ring", l.allreduce(4, 4000), 12 * us},
		// tiny payload: ring 6*(1µs+25ns)=6.15µs, tree 4*(1µs+100ns)=4.4µs;
		// tree wins.
		{"allreduce tree", l.allreduce(4, 100), 4 * (us + 100*time.Nanosecond)},
		{"allreduce degenerate", l.allreduce(1, 1<<20), 0},
		// (n-1) steps of b/n: 3 * (1µs + 1µs).
		{"reduce-scatter", l.reduceScatter(4, 4000), 6 * us},
		// (n-1) steps of the full contribution: 3 * (1µs + 2µs).
		{"allgather", l.allgather(4, 2000), 9 * us},
		// (n-1) messages of contrib/n: 3 * (1µs + 0.5µs).
		{"alltoall", l.alltoall(4, 2000), 3 * (us + 500*time.Nanosecond)},
		// ceil(log2 5) = 3 rounds of the payload: 3 * (1µs + 1µs).
		{"reduce non-power-of-two", l.reduce(5, 1000), 6 * us},
		{"broadcast", l.broadcast(4, 1000), 4 * us},
		{"gather", l.gather(4, 1000), 6 * us},
	}
	for _, tc := range cases {
		if tc.got != tc.want {
			t.Errorf("%s = %v, want %v", tc.name, tc.got, tc.want)
		}
	}
}

func TestXferZeroAndNegativeBytes(t *testing.T) {
	l := link{alpha: time.Microsecond, bps: 1e9}
	if l.xfer(0) != 0 || l.xfer(-5) != 0 {
		t.Error("xfer of non-positive bytes must cost nothing")
	}
}

// FP32's option has no compression machinery: its breakdown is pure
// communication, priced exactly as the α–β allreduce of the dense tensor.
func TestOptionFP32IsPureComm(t *testing.T) {
	c := cluster.NVLinkTestbed(4)
	m := model.Synthetic("one", []int{1 << 20}, []time.Duration{time.Millisecond}, time.Millisecond)
	cm := cost.MustModels(c, compress.Spec{ID: compress.DGC, Ratio: 0.01})
	p, err := New(m, c, cm)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Option(0, strategy.NoCompression(c))
	if err != nil {
		t.Fatal(err)
	}
	if b.Compression() != 0 || b.Staging() != 0 {
		t.Fatalf("FP32 breakdown has non-comm phases: %+v", b)
	}
	if b.Comm() != b.Total() {
		t.Fatalf("Comm %v != Total %v for a comm-only option", b.Comm(), b.Total())
	}
	if b.Total() <= 0 {
		t.Fatal("dense allreduce of 4MB priced at zero")
	}
}

// Breakdown accessors partition the phases: Total is always the sum of
// the comm, compression, and staging groups, across every enumerable
// option of generated cases.
func TestBreakdownPartition(t *testing.T) {
	for seed := uint64(0); seed < 30; seed++ {
		cs := gen.Generate(seed, gen.Config{})
		cm, err := cost.NewModels(cs.Cluster, cs.Spec)
		if err != nil {
			t.Fatal(err)
		}
		p, err := New(cs.Model, cs.Cluster, cm)
		if err != nil {
			t.Fatal(err)
		}
		for _, opt := range strategy.Enumerate(cs.Cluster) {
			b, err := p.Option(0, opt)
			if err != nil {
				t.Fatal(err)
			}
			if sum := b.Comm() + b.Compression() + b.Staging(); sum != b.Total() {
				t.Fatalf("seed %d option %s: %v+%v+%v != %v",
					seed, opt.Key(), b.Comm(), b.Compression(), b.Staging(), b.Total())
			}
		}
	}
}

// The bracket is ordered on any strategy: LowerBound never exceeds
// SerialIter, and both include the forward pass.
func TestBoundsOrdered(t *testing.T) {
	for seed := uint64(0); seed < 50; seed++ {
		cs := gen.Generate(seed, gen.Config{})
		cm, err := cost.NewModels(cs.Cluster, cs.Spec)
		if err != nil {
			t.Fatal(err)
		}
		p, err := New(cs.Model, cs.Cluster, cm)
		if err != nil {
			t.Fatal(err)
		}
		opts := strategy.Enumerate(cs.Cluster)
		r := gen.New(seed ^ 0xb0b)
		s := strategy.Uniform(len(cs.Model.Tensors), opts[r.Intn(len(opts))])
		lo, hi, err := p.Bounds(s)
		if err != nil {
			t.Fatal(err)
		}
		if lo > hi {
			t.Fatalf("seed %d: LowerBound %v > SerialIter %v", seed, lo, hi)
		}
		if lo < cs.Model.Forward {
			t.Fatalf("seed %d: bound %v below the forward pass %v", seed, lo, cs.Model.Forward)
		}
	}
}

// A slowed GPU stretches compute as the cost models say: at GPU x2 an
// uncompressed single-tensor job's serial iteration gains exactly one
// more forward pass and backward kernel, and its bound stays in step.
func TestSlowGPUStretchesCompute(t *testing.T) {
	c := cluster.NVLinkTestbed(4)
	fwd, bw := 700*time.Microsecond, 2*time.Millisecond
	m := model.Synthetic("one", []int{1 << 20}, []time.Duration{bw}, fwd)
	cm := cost.MustModels(c, compress.Spec{ID: compress.DGC, Ratio: 0.01})
	slow, err := cm.WithDeviceScale(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := strategy.Uniform(1, strategy.NoCompression(c))
	var lo, hi [2]time.Duration
	for k, models := range []*cost.Models{cm, slow} {
		p, err := New(m, c, models)
		if err != nil {
			t.Fatal(err)
		}
		if lo[k], hi[k], err = p.Bounds(s); err != nil {
			t.Fatal(err)
		}
	}
	if hi[1]-hi[0] != fwd+bw || lo[1]-lo[0] != fwd+bw {
		t.Fatalf("GPU x2 moved the bracket [%v, %v] to [%v, %v], want both up by %v", lo[0], hi[0], lo[1], hi[1], fwd+bw)
	}
}

// Mismatched strategy length and out-of-range tensor index are errors,
// not panics.
func TestPredictorErrors(t *testing.T) {
	c := cluster.NVLinkTestbed(2)
	m := model.Synthetic("two", []int{1 << 10, 1 << 10},
		[]time.Duration{time.Millisecond, time.Millisecond}, time.Millisecond)
	cm := cost.MustModels(c, compress.Spec{ID: compress.EFSignSGD})
	p, err := New(m, c, cm)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Option(2, strategy.NoCompression(c)); err == nil {
		t.Error("out-of-range tensor index accepted")
	}
	if _, err := p.Option(-1, strategy.NoCompression(c)); err == nil {
		t.Error("negative tensor index accepted")
	}
	short := strategy.Uniform(1, strategy.NoCompression(c))
	if _, err := p.SerialIter(short); err == nil {
		t.Error("SerialIter accepted a strategy shorter than the model")
	}
	if _, err := p.LowerBound(short); err == nil {
		t.Error("LowerBound accepted a strategy shorter than the model")
	}
}
