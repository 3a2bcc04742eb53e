package core

import (
	"fmt"
	"time"

	"espresso/internal/par"
	"espresso/internal/strategy"
	"espresso/internal/timeline"
)

// This file holds the parallel evaluation machinery of the selector.
// Every fan-out preserves the sequential sweep's semantics exactly: the
// same set of F(S) evaluations runs (only their wall-clock interleaving
// changes), and ties are broken by candidate index — the winner is the
// lowest-index candidate achieving the minimal iteration time, which is
// precisely the candidate the sequential first-strict-improvement rule
// keeps. Selection results are therefore bit-identical at every
// Parallelism setting.

// engines returns the evaluation pool: the selector's own engine at
// index 0 plus Parallelism-1 clones, created lazily and reused across
// calls. Clones share the read-only model/cluster/cost state and never
// record ops.
func (sel *Selector) engines() []*timeline.Engine {
	w := sel.Parallelism
	if w < 1 {
		w = 1
	}
	if sel.pool == nil {
		sel.pool = []*timeline.Engine{sel.eng}
	}
	for len(sel.pool) < w {
		eng := sel.eng.Clone()
		eng.RecordOps = false
		sel.pool = append(sel.pool, eng)
	}
	return sel.pool[:w]
}

// workerWindow accumulates one fan-out worker's wall-clock window: its
// first task's start, its last task's end, and how many tasks it ran.
// Each worker writes only its own window, so the fan-out needs no extra
// synchronization beyond par.Each's join.
type workerWindow struct {
	start, end time.Duration
	tasks      int64
	used       bool
}

// eachTraced is par.Each with per-worker span propagation: when the
// selector is tracing and the fan-out actually runs parallel, each
// worker's window (first start to last end, with its task count as the
// eval attribution) is recorded as a child span of parent. Untraced or
// sequential fan-outs delegate straight to par.Each at zero cost.
func (sel *Selector) eachTraced(parent int, name string, n int, engines int, task func(worker, i int) error) error {
	tr := sel.Trace
	if tr == nil || engines <= 1 || n <= 1 {
		return par.Each(n, engines, task)
	}
	if cap(sel.wwin) < engines {
		sel.wwin = make([]workerWindow, engines)
	}
	win := sel.wwin[:engines]
	for i := range win {
		win[i] = workerWindow{}
	}
	err := par.Each(n, engines, func(worker, i int) error {
		w := &win[worker]
		if !w.used {
			w.used = true
			w.start = tr.Now()
		}
		taskErr := task(worker, i)
		w.end = tr.Now()
		w.tasks++
		return taskErr
	})
	for k := range win {
		if win[k].used {
			tr.Add(parent, name, k, win[k].start, win[k].end, win[k].tasks)
		}
	}
	return err
}

// bestOf judges candidate strategies across the worker pool and returns
// the lowest-index one achieving the minimal F(S). seeds[0] runs first,
// alone, and its F(S) is the incumbent every other seed's lower bound is
// held against: fixed before the fan-out, so what is dismissed does not
// depend on worker interleaving, and a tie goes to index 0 regardless.
func (sel *Selector) bestOf(seeds []*strategy.Strategy, rep *Report, parent int) (*strategy.Strategy, error) {
	if len(seeds) == 0 {
		return nil, fmt.Errorf("core: no candidate strategies to evaluate")
	}
	engines := sel.engines()
	iters := make([]time.Duration, len(seeds))
	judgeSeed := func(worker, i int) error {
		eng := engines[worker]
		if err := eng.Prepare(seeds[i]); err != nil {
			return err
		}
		limit := unbounded
		if i > 0 {
			limit = iters[0]
		}
		var err error
		_, iters[i], err = sel.judge(eng, -1, limit)
		return err
	}
	if err := judgeSeed(0, 0); err != nil {
		return nil, err
	}
	if err := sel.eachTraced(parent, "seed-worker", len(seeds)-1, len(engines), func(worker, i int) error {
		return judgeSeed(worker, i+1)
	}); err != nil {
		return nil, err
	}
	best := 0
	for i, it := range iters {
		if rep.tally(it) && it < iters[best] {
			best = i
		}
	}
	rep.Evals += len(seeds)
	return seeds[best], nil
}

// probePosition judges every candidate option for tensor idx against the
// fixed remainder of the strategy loaded into the pool engines (see
// judge): iters gets an iteration time, or unbounded or cut for a
// candidate proved not below best. best is fixed for the whole position
// and a verdict does not depend on the engine that reached it, so the
// outcome is the same at every Parallelism. The engines are left with
// arbitrary options at idx; the caller must re-apply its decision to
// every pool engine afterwards.
func (sel *Selector) probePosition(engines []*timeline.Engine, idx int, probes []strategy.Option, iters []time.Duration, best time.Duration, parent int) error {
	return sel.eachTraced(parent, "probe-worker", len(probes), len(engines), func(worker, i int) error {
		eng := engines[worker]
		if err := eng.SetOption(idx, probes[i]); err != nil {
			return err
		}
		var err error
		_, iters[i], err = sel.judge(eng, idx, best)
		return err
	})
}
