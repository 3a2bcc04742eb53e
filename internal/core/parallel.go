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
// the lowest-index one achieving the minimal F(S) (see judgeSeeds).
func (sel *Selector) bestOf(seeds []*strategy.Strategy, rep *Report, parent int) (*strategy.Strategy, error) {
	best, _, err := sel.judgeSeeds(seeds, nil, rep, parent)
	if err != nil {
		return nil, err
	}
	return seeds[best], nil
}

// seedRole says what judgeSeeds does with a seed.
type seedRole uint8

const (
	// mainSeed competes for the lowest-index minimal F(S).
	mainSeed seedRole = iota
	// altSeed also competes within the second family, the seeds marked
	// altSeed, for that family's own lowest-index minimal F(S).
	altSeed
	// dupSeed equals an earlier seed, so it cannot win a lowest-index
	// tie: counted unchanged, never judged.
	dupSeed
)

// seedRound is how many seeds judgeSeeds holds against one incumbent.
const seedRound = 16

// judgeSeeds judges seeds across the worker pool and returns the index of
// the lowest-index seed achieving the minimal F(S) and, of the seeds
// roles marks altSeed, the same within that family (-1 if none; nil roles
// marks every seed mainSeed). seeds[0] runs first, alone; the rest go in
// rounds of seedRound, each held against the best F(S) judged before the
// round began. A seed at or above that incumbent cannot win, the
// incumbent being an earlier seed's; an altSeed is held against the
// worse of the two incumbents, so its verdict serves both. Incumbents are
// fixed before each fan-out, so what is dismissed does not depend on
// worker interleaving.
func (sel *Selector) judgeSeeds(seeds []*strategy.Strategy, roles []seedRole, rep *Report, parent int) (best, alt int, err error) {
	if len(seeds) == 0 {
		return 0, 0, fmt.Errorf("core: no candidate strategies to evaluate")
	}
	if roles == nil {
		roles = make([]seedRole, len(seeds))
	}
	engines := sel.engines()
	iters := make([]time.Duration, len(seeds))
	best, alt = -1, -1
	inc, altInc := unbounded, unbounded
	for lo, hi := 0, 1; lo < len(seeds); lo, hi = hi, min(hi+seedRound, len(seeds)) {
		mainLimit, altLimit := inc, max(inc, altInc)
		if err := sel.eachTraced(parent, "seed-worker", hi-lo, len(engines), func(worker, k int) error {
			i := lo + k
			limit := mainLimit
			switch roles[i] {
			case dupSeed:
				return nil
			case altSeed:
				limit = altLimit
			}
			eng := engines[worker]
			if err := eng.Prepare(seeds[i]); err != nil {
				return err
			}
			var err error
			_, iters[i], err = sel.judge(eng, -1, limit)
			return err
		}); err != nil {
			return 0, 0, err
		}
		for i := lo; i < hi; i++ {
			if roles[i] == dupSeed {
				rep.unchanged++
				continue
			}
			if it := iters[i]; rep.tally(it) {
				if it < inc {
					inc, best = it, i
				}
				if roles[i] == altSeed && it < altInc {
					altInc, alt = it, i
				}
			}
		}
	}
	rep.Evals += len(seeds)
	return best, alt, nil
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
