package core

import (
	"runtime"
	"testing"
	"time"

	"espresso/internal/baselines"
	"espresso/internal/cluster"
	"espresso/internal/cost"
	"espresso/internal/model"
	"espresso/internal/obs"
	"espresso/internal/strategy"
)

// testWorkers forces real goroutine fan-out even on single-CPU hosts.
func testWorkers() int {
	if n := runtime.NumCPU(); n > 4 {
		return n
	}
	return 4
}

func selectWith(t *testing.T, m *model.Model, c *cluster.Cluster, cm *cost.Models, workers int) (*strategy.Strategy, *Report) {
	t.Helper()
	sel := NewSelector(m, c, cm)
	sel.Parallelism = workers
	s, rep, err := sel.Select()
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	return s, rep
}

func assertSameSelection(t *testing.T, name string, seqS, parS *strategy.Strategy, seqRep, parRep *Report) {
	t.Helper()
	if seqRep.Iter != parRep.Iter {
		t.Errorf("%s: parallel F(S) %v != sequential %v", name, parRep.Iter, seqRep.Iter)
	}
	if seqRep.Evals != parRep.Evals {
		t.Errorf("%s: parallel evals %d != sequential %d", name, parRep.Evals, seqRep.Evals)
	}
	// How each candidate was judged is a property of the candidate and
	// its incumbent, not of the engine that judged it.
	if seqRep.cut != parRep.cut || seqRep.bounded != parRep.bounded || seqRep.unchanged != parRep.unchanged {
		t.Errorf("%s: parallel cut/bounded/unchanged %d/%d/%d != sequential %d/%d/%d",
			name, parRep.cut, parRep.bounded, parRep.unchanged, seqRep.cut, seqRep.bounded, seqRep.unchanged)
	}
	if seqRep.events <= 0 || parRep.events <= 0 {
		t.Errorf("%s: events %d sequential, %d parallel: every selection simulates some", name, seqRep.events, parRep.events)
	}
	if seqRep.Compressed != parRep.Compressed || seqRep.Offloaded != parRep.Offloaded {
		t.Errorf("%s: parallel compressed/offloaded %d/%d != sequential %d/%d",
			name, parRep.Compressed, parRep.Offloaded, seqRep.Compressed, seqRep.Offloaded)
	}
	for i := range seqS.PerTensor {
		if !seqS.PerTensor[i].Equal(parS.PerTensor[i]) {
			t.Errorf("%s: tensor %d: parallel picked %s, sequential %s",
				name, i, parS.PerTensor[i], seqS.PerTensor[i])
		}
	}
}

// The tentpole guarantee: parallel selection is bit-identical to
// sequential selection — same strategy, same F(S), same eval count —
// because ties are broken by candidate index either way.
func TestParallelSelectionMatchesSequential(t *testing.T) {
	c := cluster.NVLinkTestbed(4)
	m := commBound()
	cm := cost.MustModels(c, dgc())
	seqS, seqRep := selectWith(t, m, c, cm, 1)
	parS, parRep := selectWith(t, m, c, cm, testWorkers())
	assertSameSelection(t, m.Name, seqS, parS, seqRep, parRep)
	// One engine takes every probe in order, so its event count is exact.
	if _, again := selectWith(t, m, c, cm, 1); again.events != seqRep.events {
		t.Errorf("sequential selection simulated %d events, then %d", seqRep.events, again.events)
	}
}

// The same guarantee across every paper model — the acceptance bar for
// the parallel search. Sequential-vs-parallel over six full selections
// is minutes of work, so -short skips it.
func TestParallelSelectionMatchesSequentialAllModels(t *testing.T) {
	if testing.Short() {
		t.Skip("full six-model parallel-vs-sequential sweep in -short mode")
	}
	for _, m := range model.All() {
		c := cluster.NVLinkTestbed(8)
		cm := cost.MustModels(c, dgc())
		seqS, seqRep := selectWith(t, m, c, cm, 1)
		parS, parRep := selectWith(t, m, c, cm, testWorkers())
		assertSameSelection(t, m.Name, seqS, parS, seqRep, parRep)
		t.Logf("%s: F(S)=%v evals=%d identical at parallelism %d", m.Name, parRep.Iter, parRep.Evals, testWorkers())
	}
}

// Parallel selection with an attached metrics registry: the search.*
// counters must aggregate exactly as in a sequential run (the race
// detector also exercises this path via the CI -race pass).
func TestParallelSelectPublishesMetricsRaceFree(t *testing.T) {
	c := cluster.NVLinkTestbed(4)
	m := commBound()
	cm := cost.MustModels(c, dgc())
	sel := NewSelector(m, c, cm)
	sel.Parallelism = testWorkers()
	sel.Obs = obs.NewMetrics()
	_, rep, err := sel.Select()
	if err != nil {
		t.Fatal(err)
	}
	snap := sel.Obs.Snapshot()
	if got := snap.Counters["search.evals"]; got != int64(rep.Evals) {
		t.Errorf("search.evals = %d, report says %d", got, rep.Evals)
	}
	if got := snap.Counters["search.evals_run"] + snap.Counters["search.evals_cut"] + snap.Counters["search.evals_bounded"] + snap.Counters["search.evals_unchanged"]; got != int64(rep.Evals) {
		t.Errorf("search.evals_{run,cut,bounded,unchanged} sum to %d, report says %d", got, rep.Evals)
	}
	if got := snap.Counters["search.events"]; got != int64(rep.events) || got <= 0 {
		t.Errorf("search.events = %d, report says %d", got, rep.events)
	}
	if snap.Counters["search.selections"] != 1 {
		t.Errorf("search.selections = %d, want 1", snap.Counters["search.selections"])
	}
	if got := snap.Gauges["search.iter_us"]; got != float64(rep.Iter.Microseconds()) {
		t.Errorf("search.iter_us = %v, report says %v", got, rep.Iter)
	}
}

// SelectAllCompressed and UpperBound also ride the pool.
func TestParallelCripplesMatchSequential(t *testing.T) {
	c := cluster.NVLinkTestbed(4)
	m := commBound()
	cm := cost.MustModels(c, dgc())

	seq := NewSelector(m, c, cm)
	seqS, seqRep, err := seq.SelectAllCompressed()
	if err != nil {
		t.Fatal(err)
	}
	par := NewSelector(m, c, cm)
	par.Parallelism = testWorkers()
	parS, parRep, err := par.SelectAllCompressed()
	if err != nil {
		t.Fatal(err)
	}
	assertSameSelection(t, "all-compressed", seqS, parS, seqRep, parRep)
}

// BruteForceParallel shards the odometer space; the winner must be the
// exact strategy the sequential scan returns, ties included.
func TestBruteForceParallelMatchesSequential(t *testing.T) {
	c := cluster.NVLinkTestbed(4)
	ms := time.Millisecond
	m := model.Synthetic("tiny",
		[]int{4 << 20, 8 << 20, 12 << 20},
		[]time.Duration{ms, ms, ms}, ms)
	cm := cost.MustModels(c, dgc())
	opts := []strategy.Option{
		strategy.NoCompression(c),
		baselines.InterCompressed(c, cost.GPU),
		baselines.InterCompressed(c, cost.CPU),
		baselines.InterAlltoall(c, cost.GPU),
		baselines.AlltoallAlltoall(c, cost.GPU),
	}
	seqS, seqIter, err := BruteForce(m, c, cm, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Worker counts that divide the 125-point space unevenly, evenly,
	// and past its size.
	for _, w := range []int{2, 5, 7, 200} {
		parS, parIter, err := BruteForceParallel(m, c, cm, opts, w)
		if err != nil {
			t.Fatalf("parallelism=%d: %v", w, err)
		}
		if parIter != seqIter {
			t.Errorf("parallelism=%d: iter %v != sequential %v", w, parIter, seqIter)
		}
		for i := range seqS.PerTensor {
			if !seqS.PerTensor[i].Equal(parS.PerTensor[i]) {
				t.Errorf("parallelism=%d: tensor %d: %s != %s", w, i, parS.PerTensor[i], seqS.PerTensor[i])
			}
		}
	}
}

// Two selectors over the same shared (model, cluster, cost) state may
// run concurrently — only the Selector itself is single-caller.
func TestConcurrentSelectorsShareReadOnlyState(t *testing.T) {
	c := cluster.NVLinkTestbed(4)
	m := commBound()
	cm := cost.MustModels(c, dgc())
	iters := make([]time.Duration, 4)
	done := make(chan error, len(iters))
	for i := range iters {
		go func(i int) {
			sel := NewSelector(m, c, cm)
			sel.Parallelism = 2
			_, rep, err := sel.Select()
			if err == nil {
				iters[i] = rep.Iter
			}
			done <- err
		}(i)
	}
	for range iters {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i < len(iters); i++ {
		if iters[i] != iters[0] {
			t.Errorf("selector %d found F(S)=%v, selector 0 found %v", i, iters[i], iters[0])
		}
	}
}
