package core

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"espresso/internal/baselines"
	"espresso/internal/cluster"
	"espresso/internal/compress"
	"espresso/internal/cost"
	"espresso/internal/model"
	"espresso/internal/obs"
	"espresso/internal/strategy"
	"espresso/internal/timeline"
)

func dgc() compress.Spec { return compress.Spec{ID: compress.DGC, Ratio: 0.01} }

func commBound() *model.Model {
	ms := time.Millisecond
	return model.Synthetic("commbound",
		[]int{8 << 20, 16 << 20, 16 << 20, 1 << 12, 24 << 20},
		[]time.Duration{ms, ms, 2 * ms, ms, 2 * ms}, 3*ms)
}

func evalIter(t testing.TB, m *model.Model, c *cluster.Cluster, cm *cost.Models, s *strategy.Strategy) time.Duration {
	t.Helper()
	eng := timeline.New(m, c, cm)
	eng.RecordOps = false
	d, err := eng.IterTime(s)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestSelectBeatsFP32OnCommBound(t *testing.T) {
	c := cluster.NVLinkTestbed(8)
	m := commBound()
	cm := cost.MustModels(c, dgc())
	sel := NewSelector(m, c, cm)
	s, rep, err := sel.Select()
	if err != nil {
		t.Fatal(err)
	}
	fp32, _ := baselines.Strategy(baselines.FP32, m, c, cm)
	base := evalIter(t, m, c, cm, fp32)
	if rep.Iter >= base {
		t.Fatalf("Espresso %v not better than FP32 %v", rep.Iter, base)
	}
	if s.CompressedCount() == 0 {
		t.Fatal("comm-bound job selected no compression")
	}
	if rep.Evals == 0 || rep.Candidates == 0 {
		t.Fatalf("report not populated: %+v", rep)
	}
}

func TestSelectNeverWorseThanBaselines(t *testing.T) {
	for _, c := range []*cluster.Cluster{cluster.NVLinkTestbed(4), cluster.PCIeTestbed(4)} {
		m := commBound()
		cm := cost.MustModels(c, dgc())
		sel := NewSelector(m, c, cm)
		_, rep, err := sel.Select()
		if err != nil {
			t.Fatal(err)
		}
		for _, sys := range baselines.All {
			bs, err := baselines.Strategy(sys, m, c, cm)
			if err != nil {
				t.Fatal(err)
			}
			if bi := evalIter(t, m, c, cm, bs); rep.Iter > bi {
				t.Errorf("%v: Espresso %v slower than %v %v", c.Intra, rep.Iter, sys, bi)
			}
		}
	}
}

func TestUpperBoundIsALowerIterBound(t *testing.T) {
	c := cluster.NVLinkTestbed(8)
	for _, m := range []*model.Model{commBound(), model.LSTM()} {
		cm := cost.MustModels(c, dgc())
		sel := NewSelector(m, c, cm)
		_, rep, err := sel.Select()
		if err != nil {
			t.Fatal(err)
		}
		ub, err := UpperBound(m, c, cm)
		if err != nil {
			t.Fatal(err)
		}
		if ub > rep.Iter {
			t.Errorf("%s: upper bound iter %v exceeds selected %v", m.Name, ub, rep.Iter)
		}
	}
}

// Near-optimality (§5.2.4): on a brute-forceable problem, the greedy
// selection lands within a few percent of the true optimum.
func TestNearOptimalVsBruteForce(t *testing.T) {
	c := cluster.NVLinkTestbed(4)
	ms := time.Millisecond
	m := model.Synthetic("tiny",
		[]int{4 << 20, 8 << 20, 12 << 20},
		[]time.Duration{ms, ms, ms}, ms)
	cm := cost.MustModels(c, dgc())

	// A reduced but representative candidate set keeps the brute force
	// tractable: 6^3 = 216 strategies.
	opts := []strategy.Option{
		strategy.NoCompression(c),
		baselines.InterCompressed(c, cost.GPU),
		baselines.InterCompressed(c, cost.CPU),
		baselines.InterAlltoall(c, cost.GPU),
		baselines.AlltoallAlltoall(c, cost.GPU),
	}
	_, bfIter, err := BruteForce(m, c, cm, opts)
	if err != nil {
		t.Fatal(err)
	}

	sel := NewSelector(m, c, cm)
	sel.candidates = opts
	_, rep, err := sel.Select()
	if err != nil {
		t.Fatal(err)
	}
	// The selector's seed family adds device variants beyond opts, so it
	// may legitimately beat the restricted brute force; the claim under
	// test is only that it never falls more than a few percent short.
	gap := float64(rep.Iter-bfIter) / float64(bfIter)
	if gap > 0.05 {
		t.Fatalf("greedy gap to optimal = %.1f%%, want <= 5%%", 100*gap)
	}
	t.Logf("greedy %v vs optimal %v (gap %.2f%%)", rep.Iter, bfIter, 100*gap)
}

func TestBruteForceSpaceGuard(t *testing.T) {
	c := cluster.NVLinkTestbed(4)
	m := model.ResNet101()
	cm := cost.MustModels(c, dgc())
	if _, _, err := BruteForce(m, c, cm, strategy.EnumerateGPU(c)); err == nil {
		t.Fatal("brute force accepted an astronomical space")
	}
	if lg := BruteForceSpaceLog10(m, c); lg < 100 {
		t.Fatalf("|C|^N = 10^%.0f for ResNet101, expected astronomically large", lg)
	}
}

// Lemma 1: within a group of same-size, same-option tensors, the
// offloaded ones are those farthest from the output layer (the earliest
// computed).
func TestOffloadTakesGroupPrefix(t *testing.T) {
	c := cluster.PCIeTestbed(8)
	ms := time.Millisecond
	// Six equal tensors; compute-heavy tail so that GPU compression of
	// early tensors contends with backward computation and offloading
	// them pays off.
	m := model.Synthetic("equal",
		[]int{8 << 20, 8 << 20, 8 << 20, 8 << 20, 8 << 20, 8 << 20},
		[]time.Duration{2 * ms, 2 * ms, 2 * ms, 2 * ms, 2 * ms, 2 * ms}, 2*ms)
	cm := cost.MustModels(c, dgc())
	sel := NewSelector(m, c, cm)
	s, rep, err := sel.Select()
	if err != nil {
		t.Fatal(err)
	}
	// Find the boundary: no GPU-compressed tensor may precede (be
	// farther from output than) a CPU-compressed one with the same
	// option shape.
	type seen struct{ gpuAt int }
	byKey := map[string]*seen{}
	for i, o := range s.PerTensor {
		if !o.Compressed() {
			continue
		}
		key := o.WithDevice(cost.GPU).Key()
		st, ok := byKey[key]
		if !ok {
			st = &seen{gpuAt: -1}
			byKey[key] = st
		}
		if o.AllOn(cost.GPU) && st.gpuAt < 0 {
			st.gpuAt = i
		}
		if o.AllOn(cost.CPU) && st.gpuAt >= 0 && i > st.gpuAt {
			t.Fatalf("CPU-offloaded tensor %d computed after GPU-compressed tensor %d (violates Lemma 1 prefix)", i, st.gpuAt)
		}
	}
	t.Logf("compressed=%d offloaded=%d searchSpace=%d", rep.Compressed, rep.Offloaded, rep.OffloadSearch)
}

func TestThroughputAndScaling(t *testing.T) {
	c := cluster.NVLinkTestbed(8)
	m := model.BERTBase()
	iter := 2 * m.IterTime()
	th := Throughput(m, c, iter)
	if th <= 0 {
		t.Fatal("non-positive throughput")
	}
	sf := ScalingFactor(m, c, iter)
	if sf < 0.49 || sf > 0.51 {
		t.Fatalf("scaling factor at 2x iter = %v, want 0.5", sf)
	}
	if Throughput(m, c, 0) != 0 {
		t.Fatal("zero iter should yield zero throughput")
	}
}

// A real-model smoke test: selection on BERT-base completes quickly and
// improves over every baseline.
func TestSelectBERTBase(t *testing.T) {
	if testing.Short() {
		t.Skip("real-model selection in -short mode")
	}
	c := cluster.NVLinkTestbed(8)
	m := model.BERTBase()
	cm := cost.MustModels(c, compress.Spec{ID: compress.RandomK, Ratio: 0.01})
	sel := NewSelector(m, c, cm)
	start := time.Now()
	_, rep, err := sel.Select()
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	t.Logf("BERT-base selection: %v (evals=%d, compressed=%d, offloaded=%d, iter=%v)",
		elapsed, rep.Evals, rep.Compressed, rep.Offloaded, rep.Iter)
	if !raceEnabled && elapsed > 30*time.Second {
		t.Fatalf("selection took %v, far above the paper's milliseconds scale", elapsed)
	}
	for _, sys := range baselines.All {
		bs, err := baselines.Strategy(sys, m, c, cm)
		if err != nil {
			t.Fatal(err)
		}
		if bi := evalIter(t, m, c, cm, bs); rep.Iter > bi {
			t.Errorf("Espresso %v slower than %v %v", rep.Iter, sys, bi)
		}
	}
}

// The big zoo models are too slow to run unbounded in tier-1, so what
// their selections find, count and simulate at Parallelism 1 is pinned
// instead, one selection each shared by the two tests below: a later drift
// in strategy cost, in what counts as an evaluation or in the judged work
// shows as a diff here.
type bigModelPin struct {
	m             *model.Model
	c             *cluster.Cluster
	spec          compress.Spec
	evals, events int
	iter          time.Duration
	rep           *Report
}

func (pin *bigModelPin) String() string {
	return fmt.Sprintf("%s/%s/%s", pin.m.Name, pin.c.Intra, pin.spec.ID)
}

var bigModelSelections = sync.OnceValues(func() ([]*bigModelPin, error) {
	pins := []*bigModelPin{
		{m: model.ResNet101(), c: cluster.NVLinkTestbed(8), spec: dgc(), evals: 85660, events: 12755665, iter: 180124831},
		{m: model.ResNet101(), c: cluster.PCIeTestbed(8), spec: compress.Spec{ID: compress.EFSignSGD}, evals: 170730, events: 42550173, iter: 181310599},
		{m: model.BERTBase(), c: cluster.NVLinkTestbed(8), spec: dgc(), evals: 70680, events: 13066642, iter: 84453428},
		{m: model.BERTBase(), c: cluster.PCIeTestbed(8), spec: dgc(), evals: 137994, events: 76570240, iter: 182812762},
		{m: model.VGG16(), c: cluster.NVLinkTestbed(8), spec: dgc(), evals: 17109, events: 833497, iter: 188319795},
	}
	for _, pin := range pins {
		var err error
		if _, pin.rep, err = NewSelector(pin.m, pin.c, cost.MustModels(pin.c, pin.spec)).Select(); err != nil {
			return nil, fmt.Errorf("%v: %w", pin, err)
		}
	}
	return pins, nil
})

func pinnedBigModels(t *testing.T) []*bigModelPin {
	if testing.Short() {
		t.Skip("selects ResNet101 and BERT-base: seconds")
	}
	t.Parallel()
	pins, err := bigModelSelections()
	if err != nil {
		t.Fatal(err)
	}
	return pins
}

func TestBigModelSelectionsPinned(t *testing.T) {
	for _, pin := range pinnedBigModels(t) {
		if rep := pin.rep; rep.Evals != pin.evals || rep.Iter != pin.iter {
			t.Errorf("%v: evals %d iter %d ns, pinned %d / %d ns", pin, rep.Evals, int64(rep.Iter), pin.evals, int64(pin.iter))
		}
	}
}

// What the pinned selections simulate at Parallelism 1, so judged work
// that grows later shows as a diff here.
func TestBigModelEventsPinned(t *testing.T) {
	for _, pin := range pinnedBigModels(t) {
		if pin.rep.events != pin.events {
			t.Errorf("%v: %d events, pinned %d", pin, pin.rep.events, pin.events)
		}
	}
}

// An attached metrics registry mirrors the Report after Select, so a
// sweep over many configurations accumulates its search effort.
func TestSelectPublishesSearchMetrics(t *testing.T) {
	c := cluster.NVLinkTestbed(4)
	m := commBound()
	cm := cost.MustModels(c, dgc())
	sel := NewSelector(m, c, cm)
	sel.Obs = obs.NewMetrics()
	_, rep, err := sel.Select()
	if err != nil {
		t.Fatal(err)
	}
	snap := sel.Obs.Snapshot()
	if snap.Counters["search.selections"] != 1 {
		t.Errorf("search.selections = %d, want 1", snap.Counters["search.selections"])
	}
	if got := snap.Counters["search.evals"]; got != int64(rep.Evals) {
		t.Errorf("search.evals = %d, report says %d", got, rep.Evals)
	}
	if got := snap.Gauges["search.candidates"]; got != float64(rep.Candidates) {
		t.Errorf("search.candidates = %v, report says %d", got, rep.Candidates)
	}
	if got := snap.Gauges["search.iter_us"]; got != float64(rep.Iter.Microseconds()) {
		t.Errorf("search.iter_us = %v, report says %v", got, rep.Iter)
	}
	if snap.Gauges["search.selection_us"] <= 0 {
		t.Error("search.selection_us not set")
	}
	// Chain-dedup pruning is registered even when this testbed's chains
	// are all distinct (every candidate survives, counter stays zero).
	if _, ok := snap.Counters["search.candidates_pruned"]; !ok {
		t.Error("candidates_pruned counter not registered")
	}
}
