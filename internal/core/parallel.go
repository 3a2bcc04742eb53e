package core

import (
	"fmt"
	"time"

	"espresso/internal/cluster"
	"espresso/internal/cost"
	"espresso/internal/model"
	"espresso/internal/obs/wtrace"
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
// calls. Clones share the read-only model/cluster/cost state, never
// record ops, and mirror the master's ZeroCompression flag.
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
	pool := sel.pool[:w]
	for _, eng := range pool[1:] {
		eng.ZeroCompression = sel.eng.ZeroCompression
		eng.ComputeScale = sel.eng.ComputeScale
	}
	return pool
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

// maxBruteForceStrategies caps the brute-force search space: past this
// the exhaustive odometer is hopeless at any parallelism.
const maxBruteForceStrategies = 1_000_000

// BruteForceParallel is BruteForce with the odometer space split into
// contiguous shards explored on per-worker engines. The result is
// bit-identical to the sequential search: of all minimal-F(S)
// strategies, the one with the lowest odometer index wins, the same
// strategy the sequential first-strict-improvement scan keeps.
func BruteForceParallel(m *model.Model, c *cluster.Cluster, cm *cost.Models, options []strategy.Option, parallelism int) (*strategy.Strategy, time.Duration, error) {
	return BruteForceTraced(m, c, cm, options, parallelism, nil)
}

// BruteForceTraced is BruteForceParallel with wall-clock shard tracing:
// when req is non-nil, each odometer shard records a top-level span with
// its worker index and evaluation count, so a slow validation run shows
// exactly which shard dominated.
func BruteForceTraced(m *model.Model, c *cluster.Cluster, cm *cost.Models, options []strategy.Option, parallelism int, req *wtrace.Req) (*strategy.Strategy, time.Duration, error) {
	n := len(m.Tensors)
	if len(options) == 0 {
		return nil, 0, fmt.Errorf("core: brute force needs at least one option")
	}
	size := 1
	for i := 0; i < n; i++ {
		size *= len(options)
		if size > maxBruteForceStrategies {
			// The guard counts the same space SpaceLog10 reports for
			// this option set: |options|^n, uncompressed members
			// included — asserted by TestBruteForceGuardCountsSpaceLog10.
			return nil, 0, fmt.Errorf("core: brute force space too large (%d^%d = 10^%.1f strategies, cap %d)",
				len(options), n, SpaceLog10(options, n), maxBruteForceStrategies)
		}
	}
	w := parallelism
	if w < 1 {
		w = 1
	}
	if w > size {
		w = size
	}

	type shard struct {
		best *strategy.Strategy
		iter time.Duration
	}
	shards := make([]shard, w)
	err := par.Each(w, w, func(_, si int) error {
		lo, hi := si*size/w, (si+1)*size/w
		shards[si].iter = -1
		if lo >= hi {
			return nil
		}
		shardStart := req.Now()
		defer func() {
			req.Add(wtrace.NoParent, "brute-shard", si, shardStart, req.Now(), int64(hi-lo))
		}()
		eng := timeline.New(m, c, cm)
		eng.RecordOps = false
		// Decode the shard's first odometer state: digit j of lo in base
		// |options| is tensor j's option, tensor 0 least significant —
		// the same encoding the sequential odometer steps through.
		assign := make([]int, n)
		for j, li := 0, lo; j < n; j++ {
			assign[j] = li % len(options)
			li /= len(options)
		}
		s := strategy.Uniform(n, options[0])
		for j := 0; j < n; j++ {
			s.PerTensor[j] = options[assign[j]]
		}
		if err := eng.Prepare(s); err != nil {
			return err
		}
		bestIter := time.Duration(-1)
		var best *strategy.Strategy
		for pos := lo; ; pos++ {
			r, err := eng.Run()
			if err != nil {
				return err
			}
			if bestIter < 0 || r.Iter < bestIter {
				bestIter = r.Iter
				best = s.Clone()
			}
			if pos+1 >= hi {
				break
			}
			i := 0
			for ; i < n; i++ {
				assign[i]++
				if assign[i] < len(options) {
					break
				}
				assign[i] = 0
			}
			for j := 0; j <= i; j++ {
				s.PerTensor[j] = options[assign[j]]
				if err := eng.SetOption(j, options[assign[j]]); err != nil {
					return err
				}
			}
		}
		shards[si] = shard{best: best, iter: bestIter}
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	bestIter := time.Duration(-1)
	var best *strategy.Strategy
	for _, sh := range shards {
		if sh.iter < 0 {
			continue
		}
		if bestIter < 0 || sh.iter < bestIter {
			bestIter, best = sh.iter, sh.best
		}
	}
	return best, bestIter, nil
}
