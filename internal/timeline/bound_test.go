package timeline

import (
	"testing"
	"time"

	"espresso/internal/cost"
	"espresso/internal/gen"
	"espresso/internal/strategy"
)

// boundCases are the generated configurations the LowerBound properties
// run on: the harness's default 1–6-tensor cases plus 12–24-tensor ones,
// where the per-resource argument and the per-tensor path argument trade
// places from strategy to strategy.
func boundCases() []*gen.Case {
	small, large := uint64(2040), uint64(48)
	if testing.Short() {
		small, large = 200, 8
	}
	var cases []*gen.Case
	for seed := uint64(1); seed <= small; seed++ {
		cases = append(cases, gen.Generate(seed, gen.Config{}))
	}
	for seed := uint64(1); seed <= large; seed++ {
		cases = append(cases, gen.Generate(seed, gen.Config{MinTensors: 12, MaxTensors: 24}))
	}
	return cases
}

// costVariant is cs's cost models with compression free (the §5.1 Upper
// Bound) or priced, and the GPU slowed by scale (1 = healthy): the four
// settings that change what a run computes.
func costVariant(t testing.TB, cs *gen.Case, free bool, scale float64) *cost.Models {
	t.Helper()
	cm := cost.MustModels(cs.Cluster, cs.Spec)
	if scale != 1 {
		var err error
		if cm, err = cm.WithDeviceScale(scale, 1); err != nil {
			t.Fatal(err)
		}
	}
	if free {
		cm = cm.WithFreeCompression()
	}
	return cm
}

// Property: LowerBound() <= Run().Iter for FP32, every uniform strategy
// on either device and random per-tensor assignments, with compression
// free or priced and the GPU healthy or slowed. The Selector skips a
// probe on the strength of this inequality alone, so one violation is a
// wrong strategy somewhere. A failure names the seed that reproduces it.
func TestLowerBoundNeverExceedsRun(t *testing.T) {
	for _, cs := range boundCases() {
		n := len(cs.Model.Tensors)
		opts := strategy.Enumerate(cs.Cluster) // mixed-device options included

		strategies := []*strategy.Strategy{strategy.Uniform(n, strategy.NoCompression(cs.Cluster))}
		for _, o := range strategy.EnumerateGPU(cs.Cluster) {
			if o.Compressed() {
				strategies = append(strategies,
					strategy.Uniform(n, o), strategy.Uniform(n, o.WithDevice(cost.CPU)))
			}
		}
		r := gen.New(cs.Seed ^ 0x626f756e64) // "bound"
		for k := 0; k < 20; k++ {
			s := strategy.Uniform(n, opts[0])
			for i := range s.PerTensor {
				s.PerTensor[i] = opts[r.Intn(len(opts))]
			}
			strategies = append(strategies, s)
		}

		for _, free := range []bool{false, true} {
			for _, scale := range []float64{1, 2.5} {
				e := New(cs.Model, cs.Cluster, costVariant(t, cs, free, scale))
				e.RecordOps = false
				for k, s := range strategies {
					if err := e.Prepare(s); err != nil {
						t.Fatalf("%v: %v", cs, err)
					}
					lb := e.LowerBound()
					res, err := e.Run()
					if err != nil {
						t.Fatalf("%v: %v", cs, err)
					}
					if lb > res.Iter {
						t.Fatalf("%v (tensors=%d) strategy %d free-compression=%v gpu-scale=%v: LowerBound %v > Iter %v",
							cs, n, k, free, scale, lb, res.Iter)
					}
				}
			}
		}
	}
}

// loadedSums recomputes LowerBound's inputs from the chains the engine
// has loaded — what SetOption is meant to have kept up to date.
func loadedSums(e *Engine) (busy [numResources]time.Duration, sums []time.Duration) {
	sums = make([]time.Duration, len(e.chains))
	for i, ch := range e.chains {
		for _, j := range ch {
			busy[j.res] += j.dur
			sums[i] += j.dur
		}
	}
	return busy, sums
}

func assertSumsMatchLoaded(t *testing.T, when string, cs *gen.Case, e *Engine) {
	t.Helper()
	busy, sums := loadedSums(e)
	if busy != e.busy {
		t.Fatalf("%v: %s: busy %v, recomputed %v", cs, when, e.busy, busy)
	}
	for i := range sums {
		if sums[i] != e.chainSum[i] {
			t.Fatalf("%v: %s: tensor %d chain sum %v, recomputed %v", cs, when, i, e.chainSum[i], sums[i])
		}
	}
	lb := e.LowerBound()
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if lb > res.Iter {
		t.Fatalf("%v: %s: LowerBound %v > Iter %v", cs, when, lb, res.Iter)
	}
}

// The sums behind LowerBound are maintained by integer adds and subtracts
// across SetOption calls, never recomputed on the probe path; they must
// not drift through any sequence of the calls the Selector makes, on
// priced and on free compression.
func TestLowerBoundSumsStayExact(t *testing.T) {
	for seed := uint64(1); seed <= 24; seed++ {
		cs := gen.Generate(seed, gen.Config{MinTensors: 2, MaxTensors: 24})
		e := New(cs.Model, cs.Cluster, costVariant(t, cs, seed%2 == 0, 1))
		e.RecordOps = false
		n := len(cs.Model.Tensors)
		opts := strategy.Enumerate(cs.Cluster)
		r := gen.New(seed ^ 0x73756d73) // "sums"

		if err := e.Prepare(strategy.Uniform(n, strategy.NoCompression(cs.Cluster))); err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 1000; k++ {
			if err := e.SetOption(r.Intn(n), opts[r.Intn(len(opts))]); err != nil {
				t.Fatal(err)
			}
		}
		assertSumsMatchLoaded(t, "after 1000 SetOption calls", cs, e)

		if err := e.Prepare(strategy.Uniform(n, opts[r.Intn(len(opts))])); err != nil {
			t.Fatal(err)
		}
		assertSumsMatchLoaded(t, "after Prepare", cs, e)

		clone := e.Clone()
		clone.RecordOps = false
		for k := 0; k < 50; k++ {
			if err := clone.SetOption(r.Intn(n), opts[r.Intn(len(opts))]); err != nil {
				t.Fatal(err)
			}
		}
		assertSumsMatchLoaded(t, "clone after 50 SetOption calls", cs, clone)
		assertSumsMatchLoaded(t, "original after its clone moved", cs, e)
	}
}
