package timeline

import (
	"fmt"
	"testing"
	"time"

	"espresso/internal/cluster"
	"espresso/internal/compress"
	"espresso/internal/cost"
	"espresso/internal/gen"
	"espresso/internal/model"
	"espresso/internal/strategy"
)

// Probe resumes from a fork and stops at the verdict; neither may change
// anything a caller can read. These tests hold every Probe against a
// fresh engine's Run of the same configuration. A failure names the
// generated case, whose seed reproduces it.

// loaded is a configuration kept twice: in the engine under test, through
// whatever sequence of calls a test makes, and as the plain description a
// fresh engine is loaded from.
type loaded struct {
	cs    *gen.Case
	opts  []strategy.Option
	e     *Engine
	s     *strategy.Strategy
	empty []bool // tensors whose chain was replaced by no jobs at all
}

func newLoaded(t testing.TB, cs *gen.Case, r *gen.Rand, free bool, scale float64) *loaded {
	t.Helper()
	l := &loaded{cs: cs, opts: strategy.Enumerate(cs.Cluster)}
	n := len(cs.Model.Tensors)
	l.e = New(cs.Model, cs.Cluster, costVariant(t, cs, free, scale))
	l.e.RecordOps = false
	l.s = strategy.Uniform(n, l.opts[0])
	for i := range l.s.PerTensor {
		l.s.PerTensor[i] = l.opts[r.Intn(len(l.opts))]
	}
	l.empty = make([]bool, n)
	if err := l.e.Prepare(l.s); err != nil {
		t.Fatalf("%v: %v", cs, err)
	}
	return l
}

// set re-assigns tensor i on the engine under test: to a random option,
// or, one time in eight, to an empty chain (no option derives one, but
// the loop must take a tensor that is done when its kernel is).
func (l *loaded) set(t testing.TB, r *gen.Rand, i int) {
	t.Helper()
	if l.empty[i] = r.Intn(8) == 0; l.empty[i] {
		l.e.load(i, nil)
		return
	}
	l.s.PerTensor[i] = l.opts[r.Intn(len(l.opts))]
	if err := l.e.SetOption(i, l.s.PerTensor[i]); err != nil {
		t.Fatalf("%v: %v", l.cs, err)
	}
}

// fresh loads the same configuration into a new engine.
func (l *loaded) fresh(t testing.TB) *Engine {
	t.Helper()
	f := New(l.cs.Model, l.cs.Cluster, l.e.Cost)
	f.RecordOps = false
	if err := f.Prepare(l.s); err != nil {
		t.Fatalf("%v: %v", l.cs, err)
	}
	for i, empty := range l.empty {
		if empty {
			f.load(i, nil)
		}
	}
	return f
}

// check holds l.e.Probe(idx, limit) against a fresh engine: a stopped run
// really is at or above limit, any other result is Run's, and a fresh
// engine's Probe — no fork to resume from — says stopped exactly when
// this one does. It returns that, and the events each side simulated.
func (l *loaded) check(t testing.TB, idx int, limit time.Duration) (stopped bool, probed, scratch int) {
	t.Helper()
	where := fmt.Sprintf("%v free-compression=%v gpu-scale=%v: Probe(%d, %v)", l.cs, l.e.Cost.FreeCompression(), l.e.Cost.Profile(cost.GPU).Scale, idx, limit)
	f := l.fresh(t)
	want, err := f.Run()
	if err != nil {
		t.Fatalf("%s: %v", where, err)
	}
	scratch = f.Events()

	before := l.e.Events()
	got, stopped, err := l.e.Probe(idx, limit)
	if err != nil {
		t.Fatalf("%s: %v", where, err)
	}
	probed = l.e.Events() - before
	switch {
	case stopped && want.Iter < limit:
		t.Fatalf("%s: stopped, but Run().Iter is %v", where, want.Iter)
	case !stopped && (got.Iter != want.Iter || got.Makespan != want.Makespan || got.ResBusy != want.ResBusy):
		t.Fatalf("%s:\n got %v %v %v\nwant %v %v %v", where, got.Iter, got.Makespan, got.ResBusy, want.Iter, want.Makespan, want.ResBusy)
	}
	if _, fromScratch, err := f.Probe(-1, limit); err != nil || fromScratch != stopped {
		t.Fatalf("%s: stopped=%v, a fresh engine's Probe stopped=%v (err %v)", where, stopped, fromScratch, err)
	}
	return stopped, probed, scratch
}

// forkCases are generated configurations under the four cost-model
// variants that change what a run computes (see costVariant).
func forkCases(t *testing.T, visit func(cs *gen.Case, r *gen.Rand, free bool, scale float64)) {
	small, large := uint64(120), uint64(12)
	if testing.Short() {
		small, large = 30, 3
	}
	var cases []*gen.Case
	for seed := uint64(1); seed <= small; seed++ {
		cases = append(cases, gen.Generate(seed, gen.Config{}))
	}
	for seed := uint64(1); seed <= large; seed++ {
		cases = append(cases, gen.Generate(seed, gen.Config{MinTensors: 12, MaxTensors: 24}))
	}
	for _, cs := range cases {
		r := gen.New(cs.Seed ^ 0x666f726b) // "fork"
		for _, free := range []bool{false, true} {
			for _, scale := range []float64{1, 2.5} {
				visit(cs, r, free, scale)
			}
		}
	}
}

func TestForkedRunMatchesScratch(t *testing.T) {
	var probed, scratch int
	forkCases(t, func(cs *gen.Case, r *gen.Rand, free bool, scale float64) {
		l := newLoaded(t, cs, r, free, scale)
		n := len(cs.Model.Tensors)
		// Every position ascending, so each first run resumes from the
		// fork below it and takes its own, then in random order, so forks
		// above a position are dropped.
		positions := make([]int, 2*n)
		for k := range positions {
			positions[k] = k
			if k >= n {
				positions[k] = r.Intn(n)
			}
		}
		for _, idx := range positions {
			for k := 0; k < 4; k++ {
				l.set(t, r, idx)
				// Every other round, more tensors above idx move too.
				for extra := k % 2 * r.Intn(3); extra > 0; extra-- {
					l.set(t, r, idx+r.Intn(n-idx))
				}
				_, p, s := l.check(t, idx, NoLimit)
				probed, scratch = probed+p, scratch+s
			}
		}
	})
	// Most cases have 1–6 tensors and half the positions are early ones.
	if probed*10 > scratch*9 {
		t.Errorf("forked runs simulated %d events, runs from t=0 %d: the forks are not being used", probed, scratch)
	}
	t.Logf("events: %d from t=0, %d forked", scratch, probed)
}

func TestStoppedRunVerdict(t *testing.T) {
	stops := 0
	forkCases(t, func(cs *gen.Case, r *gen.Rand, free bool, scale float64) {
		l := newLoaded(t, cs, r, free, scale)
		n := len(cs.Model.Tensors)
		for k := 0; k < 6; k++ {
			idx := r.Intn(n)
			l.set(t, r, idx)
			full, err := l.fresh(t).Run()
			if err != nil {
				t.Fatal(err)
			}
			iter := full.Iter
			limits := []time.Duration{iter + 1, iter, iter - 1, l.e.LowerBound(), l.e.LowerBound() + 1,
				time.Duration(float64(iter) * (0.5 + r.Float64()/2)), 0, NoLimit}
			for _, limit := range limits {
				// Twice: the first may take the fork, the second resumes.
				for pass := 0; pass < 2; pass++ {
					if stopped, _, _ := l.check(t, idx, limit); stopped {
						stops++
					}
				}
			}
			// limit = Iter+1 is not reached, so the run must finish.
			if _, stopped, _ := l.e.Probe(idx, iter+1); stopped {
				t.Fatalf("%v: Probe(%d, Iter+1) stopped", cs, idx)
			}
		}
	})
	if stops == 0 {
		t.Error("no run was ever stopped")
	}
}

// A fork is the past of one configuration; anything that changes that
// past must drop it.
func TestStaleForkIsNotUsed(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		cs := gen.Generate(seed, gen.Config{MinTensors: 4, MaxTensors: 16})
		r := gen.New(seed ^ 0x7374616c65) // "stale"
		l := newLoaded(t, cs, r, false, 1)
		n := len(cs.Model.Tensors)
		idx := 1 + r.Intn(n-1)
		take := func() {
			t.Helper()
			l.set(t, r, idx)
			l.check(t, idx, NoLimit)
			if !l.e.fork.ok || l.e.fork.idx != idx {
				t.Fatalf("%v: no fork at %d after a finished Probe there", cs, idx)
			}
		}
		// fullRun: e's next Probe resumes from nothing — it simulates as
		// much as Run, which never uses a fork, and gives Run's result.
		fullRun := func(e *Engine, why string) {
			t.Helper()
			before := e.Events()
			want, err := e.Run()
			if err != nil {
				t.Fatal(err)
			}
			iter, busy, scratch := want.Iter, want.ResBusy, e.Events()-before
			got, stopped, err := e.Probe(idx, NoLimit)
			if err != nil || stopped || got.Iter != iter || got.ResBusy != busy {
				t.Fatalf("%v: after %s Probe gives %v %v (stopped=%v, err %v), Run %v %v", cs, why, got.Iter, got.ResBusy, stopped, err, iter, busy)
			}
			if probed := e.Events() - before - scratch; probed != scratch {
				t.Fatalf("%v: after %s Probe simulated %d events, a run from t=0 %d", cs, why, probed, scratch)
			}
		}

		take()
		l.set(t, r, r.Intn(idx))
		if l.e.fork.ok {
			t.Fatalf("%v: fork at %d survived SetOption below it", cs, idx)
		}
		fullRun(l.e, "SetOption below the fork")

		take()
		if err := l.e.Prepare(l.s); err != nil {
			t.Fatal(err)
		}
		clear(l.empty)
		fullRun(l.e, "Prepare")

		take()
		clone := l.e.Clone()
		clone.RecordOps = false
		fullRun(clone, "Clone, on the clone,")

		take()
		l.e.RecordOps = true
		got, stopped, err := l.e.Probe(idx, 0)
		if err != nil || stopped || len(got.Ops) == 0 {
			t.Fatalf("%v: Probe with RecordOps on: stopped=%v err=%v, %d ops", cs, stopped, err, len(got.Ops))
		}
		l.e.RecordOps = false
	}
}

// FuzzForkedRun drives one engine through an arbitrary sequence of
// re-assignments and probes, each held against a fresh engine.
func FuzzForkedRun(f *testing.F) {
	f.Add(uint64(1), []byte{0, 1, 2, 3})
	f.Add(uint64(7), []byte{0x83, 0x10, 0xff, 0x00, 0x42, 0x42})
	f.Add(uint64(1566), []byte{5, 4, 3, 2, 1, 0, 0x80, 0x81})
	f.Fuzz(func(t *testing.T, seed uint64, steps []byte) {
		if len(steps) > 64 {
			steps = steps[:64]
		}
		cs := gen.Generate(seed, gen.Config{MaxTensors: 10})
		r := gen.New(seed ^ 0x66757a7a) // "fuzz"
		l := newLoaded(t, cs, r, seed%3 == 0, []float64{1, 2.5}[seed%2])
		n := len(cs.Model.Tensors)
		// Each byte: the low bits pick the tensor, the top bit whether
		// the run is held to a limit near its true iteration time.
		for _, b := range steps {
			idx := int(b&0x7f) % n
			l.set(t, r, idx)
			limit := NoLimit
			if b&0x80 != 0 {
				full, err := l.fresh(t).Run()
				if err != nil {
					t.Fatal(err)
				}
				limit = full.Iter - time.Duration(r.Intn(3)-1)*time.Duration(r.Intn(int(full.Iter/4)+1))
			}
			l.check(t, idx, limit)
		}
	})
}

// probeBench is a zoo model under the NVLink testbed's dgc strategy mix
// with the probe position in the middle of the model: what one candidate
// of the Selector's sweep costs from t=0, from the fork, and held to the
// incumbent.
func probeBench(b *testing.B, run func(b *testing.B, e *Engine, idx int, swap [2]strategy.Option, iter time.Duration)) {
	for _, m := range []*model.Model{model.VGG16(), model.ResNet101()} {
		b.Run(m.Name, func(b *testing.B) {
			c := cluster.NVLinkTestbed(8)
			e := New(m, c, cost.MustModels(c, compress.Spec{ID: compress.DGC, Ratio: 0.01}))
			e.RecordOps = false
			opts := strategy.EnumerateGPU(c)
			n := len(m.Tensors)
			s := strategy.Uniform(n, strategy.NoCompression(c))
			for i := range s.PerTensor {
				s.PerTensor[i] = opts[i%len(opts)]
			}
			if err := e.Prepare(s); err != nil {
				b.Fatal(err)
			}
			res, err := e.Run()
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			run(b, e, n/2, [2]strategy.Option{opts[1], opts[2]}, res.Iter)
		})
	}
}

func BenchmarkProbeScratch(b *testing.B) {
	probeBench(b, func(b *testing.B, e *Engine, idx int, swap [2]strategy.Option, _ time.Duration) {
		for i := 0; i < b.N; i++ {
			if err := e.SetOption(idx, swap[i&1]); err != nil {
				b.Fatal(err)
			}
			if _, err := e.Run(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkProbeForked(b *testing.B) {
	probeBench(b, func(b *testing.B, e *Engine, idx int, swap [2]strategy.Option, _ time.Duration) {
		for i := 0; i < b.N; i++ {
			if err := e.SetOption(idx, swap[i&1]); err != nil {
				b.Fatal(err)
			}
			if _, _, err := e.Probe(idx, NoLimit); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkProbeStopped(b *testing.B) {
	probeBench(b, func(b *testing.B, e *Engine, idx int, swap [2]strategy.Option, iter time.Duration) {
		for i := 0; i < b.N; i++ {
			if err := e.SetOption(idx, swap[i&1]); err != nil {
				b.Fatal(err)
			}
			if _, _, err := e.Probe(idx, iter); err != nil {
				b.Fatal(err)
			}
		}
	})
}
