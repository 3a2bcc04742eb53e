package core

import (
	"math"
	"slices"
	"sort"
	"strconv"
	"time"

	"espresso/internal/cost"
	"espresso/internal/obs/wtrace"
	"espresso/internal/strategy"
	"espresso/internal/timeline"
)

// MaxOffloadSearch bounds Algorithm 2's exact search. The paper's models
// stay within a few thousand combinations (Table 6); if a configuration
// explodes past the bound, the selector falls back to a greedy marginal
// offload, still honoring Lemma 1's within-group order.
const MaxOffloadSearch = 40000

// offloadGroups builds G_gpu: tensors compressed by Algorithm 1, grouped
// by (size, compression option), each group sorted by descending distance
// to the output layer — Lemma 1 proves the q tensors farthest from the
// output layer are the best ones to offload, so offloading always takes a
// group's prefix.
func (sel *Selector) offloadGroups(s *strategy.Strategy) [][]int {
	byKey := make(map[string][]int)
	var keys []string
	for i, opt := range s.PerTensor {
		if !opt.Compressed() {
			continue
		}
		key := strconv.Itoa(sel.M.Tensors[i].Elems) + "|" + opt.Key()
		if _, ok := byKey[key]; !ok {
			keys = append(keys, key)
		}
		byKey[key] = append(byKey[key], i)
	}
	sort.Strings(keys)
	groups := make([][]int, 0, len(keys))
	for _, k := range keys {
		g := byKey[k]
		sort.Slice(g, func(a, b int) bool {
			return sel.M.DistanceToOutput(g[a]) > sel.M.DistanceToOutput(g[b])
		})
		groups = append(groups, g)
	}
	return groups
}

// OffloadCPU is Algorithm 2: find the best number of tensors u_i to
// offload to CPUs from each group, traversing the product space
// prod(|G_i|+1) exactly (Theorem 1) — or greedily when the space exceeds
// MaxOffloadSearch.
//
// Algorithm 1's output can already carry CPU placements (its seed family
// includes CPU strategies); the search itself explores group prefixes
// from an all-GPU baseline per Lemma 1, and the result is kept only when
// it beats the input.
func (sel *Selector) OffloadCPU(s *strategy.Strategy, rep *Report) (*strategy.Strategy, error) {
	return sel.offloadCPU(s, unbounded, rep, wtrace.NoParent)
}

// offloadCPU is OffloadCPU with the enclosing trace span: the chosen
// search (exact or greedy) records a child span carrying its evaluation
// count, so a slow offload phase attributes directly to its odometer.
//
// The exact search starts from an incumbent instead of from nothing: the
// result is kept only at or below F(s), and a caller that keeps it only
// below ceiling says so, so the search needs to find only a state below
// min(F(s)+1, ceiling). Whenever one exists the argmin is the same; when
// none does, either search returns a strategy its caller rejects.
func (sel *Selector) offloadCPU(s *strategy.Strategy, ceiling time.Duration, rep *Report, parent int) (*strategy.Strategy, error) {
	if rep == nil {
		rep = &Report{}
	}
	groups := sel.offloadGroups(s)
	for _, g := range groups {
		rep.OffloadTensors += len(g)
	}
	if len(groups) == 0 {
		rep.OffloadSearch = 1
		return s, nil
	}
	origIter, err := sel.iter(s, rep)
	if err != nil {
		return nil, err
	}

	// Report the true Algorithm 2 space, prod(|G_i|+1) — Table 6
	// consumes this — saturating instead of overflowing; the cap only
	// decides exact-vs-greedy below.
	space := 1
	for _, g := range groups {
		if space > math.MaxInt/(len(g)+1) {
			space = math.MaxInt
			break
		}
		space *= len(g) + 1
	}
	rep.OffloadSearch = space
	tr := sel.Trace
	var searched *strategy.Strategy
	if space > MaxOffloadSearch {
		sp := tr.Begin(parent, "offload-greedy")
		evals := rep.Evals
		searched, err = sel.greedyOffload(s, groups, rep)
		tr.EndEvals(sp, int64(rep.Evals-evals))
	} else {
		sp := tr.Begin(parent, "offload-exact")
		evals := rep.Evals
		bar := min(origIter+1, ceiling)
		if sel.runAll {
			bar = unbounded
		}
		searched, err = sel.exactOffload(s, groups, bar, rep)
		tr.EndEvals(sp, int64(rep.Evals-evals))
	}
	if err != nil {
		return nil, err
	}
	searchedIter, err := sel.iter(searched, rep)
	if err != nil {
		return nil, err
	}
	best := searched
	if origIter < searchedIter {
		best = s
	}
	rep.Offloaded = 0
	for _, o := range best.PerTensor {
		if o.AllOn(cost.CPU) {
			rep.Offloaded++
		}
	}
	return best, nil
}

// normalizeGPU points every grouped tensor's compression at the GPU, both
// in the strategy copy and in the prepared engine. Placements here and in
// the probe loops below come from onDevice: the engine's memo hits.
func (sel *Selector) normalizeGPU(out *strategy.Strategy, groups [][]int) error {
	for _, g := range groups {
		for _, idx := range g {
			opt := sel.onDevice(out.PerTensor[idx], cost.GPU)
			out.PerTensor[idx] = opt
			if err := sel.eng.SetOption(idx, opt); err != nil {
				return err
			}
		}
	}
	return nil
}

// exactOffload traverses every U in the product space with an odometer,
// toggling one tensor's device per step, and returns the first U in
// odometer order with the minimal F(S) below bar — all on GPU if none is.
func (sel *Selector) exactOffload(s *strategy.Strategy, groups [][]int, bar time.Duration, rep *Report) (*strategy.Strategy, error) {
	out := s.Clone()
	if err := sel.eng.Prepare(out); err != nil {
		return nil, err
	}
	if err := sel.normalizeGPU(out, groups); err != nil {
		return nil, err
	}
	setDev := func(idx int, dev cost.Device) error {
		out.PerTensor[idx] = sel.onDevice(s.PerTensor[idx], dev)
		return sel.eng.SetOption(idx, out.PerTensor[idx])
	}

	u := make([]int, len(groups))
	bestU := make([]int, len(groups))
	bestIter := bar
	// The odometer turns group 0 fastest; nothing below its lowest tensor
	// changes until a slower group steps.
	forkAt := slices.Min(groups[0])
	for {
		rep.Evals++
		_, it, err := sel.judge(sel.eng, forkAt, bestIter)
		if err != nil {
			return nil, err
		}
		if rep.tally(it) && it < bestIter {
			bestIter = it
			copy(bestU, u)
		}
		// Odometer step: offload one more tensor of the lowest group
		// that still has headroom; wrapped groups revert to GPU.
		i := 0
		for ; i < len(groups); i++ {
			if u[i] < len(groups[i]) {
				if err := setDev(groups[i][u[i]], cost.CPU); err != nil {
					return nil, err
				}
				u[i]++
				break
			}
			for _, idx := range groups[i] {
				if err := setDev(idx, cost.GPU); err != nil {
					return nil, err
				}
			}
			u[i] = 0
		}
		if i == len(groups) {
			break
		}
	}
	// Apply the best U.
	for gi, g := range groups {
		for j, idx := range g {
			dev := cost.GPU
			if j < bestU[gi] {
				dev = cost.CPU
			}
			out.PerTensor[idx] = sel.onDevice(s.PerTensor[idx], dev)
		}
	}
	return out, nil
}

// greedyOffload offloads one group-prefix tensor at a time as long as the
// iteration time improves — the large-space fallback.
func (sel *Selector) greedyOffload(s *strategy.Strategy, groups [][]int, rep *Report) (*strategy.Strategy, error) {
	out := s.Clone()
	if err := sel.eng.Prepare(out); err != nil {
		return nil, err
	}
	if err := sel.normalizeGPU(out, groups); err != nil {
		return nil, err
	}
	r, err := sel.eng.Run()
	if err != nil {
		return nil, err
	}
	rep.Evals++
	best := r.Iter
	bestGPU := r.ResBusy[timeline.ResGPU]
	u := make([]int, len(groups))
	for {
		bestGroup := -1
		bestIter := best
		bestBusy := bestGPU
		for gi, g := range groups {
			if u[gi] >= len(g) {
				continue
			}
			idx := g[u[gi]]
			if err := sel.eng.SetOption(idx, sel.onDevice(s.PerTensor[idx], cost.CPU)); err != nil {
				return nil, err
			}
			rep.Evals++
			// Accept strict improvements, and on iteration-time
			// plateaus the move that frees the most GPU time — the
			// contention CPU offloading exists to relieve. A plateau
			// can win, so only an iteration time strictly above bestIter
			// is dismissed unfinished.
			r, it, err := sel.judge(sel.eng, -1, bestIter+1)
			if err != nil {
				return nil, err
			}
			if rep.tally(it) && (it < bestIter || (it == bestIter && r.ResBusy[timeline.ResGPU] < bestBusy)) {
				bestIter = it
				bestBusy = r.ResBusy[timeline.ResGPU]
				bestGroup = gi
			}
			// Revert the probe.
			if err := sel.eng.SetOption(idx, out.PerTensor[idx]); err != nil {
				return nil, err
			}
		}
		if bestGroup < 0 {
			break
		}
		idx := groups[bestGroup][u[bestGroup]]
		out.PerTensor[idx] = sel.onDevice(s.PerTensor[idx], cost.CPU)
		if err := sel.eng.SetOption(idx, out.PerTensor[idx]); err != nil {
			return nil, err
		}
		u[bestGroup]++
		rep.Offloaded++
		best = bestIter
		bestGPU = bestBusy
	}
	return out, nil
}
