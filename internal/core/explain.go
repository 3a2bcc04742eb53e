package core

import (
	"fmt"
	"io"
	"sort"
	"time"

	"espresso/internal/obs/wtrace"
	"espresso/internal/strategy"
)

// This file implements the selector's opt-in decision log: a post-hoc
// explanation pass that, for every tensor, re-evaluates each candidate
// option against the *final* selected strategy and records the predicted
// iteration time of each alternative. The log answers "why was this
// tensor (not) compressed" with the same F(S) evidence Algorithm 1 used,
// measured at the fixed point the sweep converged to rather than at
// whatever intermediate strategy happened to be loaded when the sweep
// visited the tensor.

// CandidateEval is one probed alternative for one tensor: the option and
// the full-timeline iteration time F(S) the selection would have if only
// this tensor switched to it.
type CandidateEval struct {
	// Option is the probed per-tensor option (its Key() names it).
	Option strategy.Option
	// Iter is F(S') with this tensor set to Option and every other
	// tensor left at its selected option.
	Iter time.Duration
	// Chosen marks the option the selector actually picked.
	Chosen bool
}

// TensorDecision explains the selector's choice for one tensor.
type TensorDecision struct {
	// Tensor is the tensor's backward index; Name its layer parameter.
	Tensor int
	Name   string
	// Chosen is the selected option and ChosenIter its predicted
	// iteration time (equal for every tensor: it is F(S) of the final
	// strategy).
	Chosen     strategy.Option
	ChosenIter time.Duration
	// RunnerUp is the best alternative probed and RunnerUpIter its
	// predicted iteration time.
	RunnerUp     strategy.Option
	RunnerUpIter time.Duration
	// Margin is RunnerUpIter - ChosenIter: how much slower the iteration
	// would get if this tensor switched to its best alternative. A
	// margin of zero means the choice is a tie (common for tensors whose
	// communication hides entirely inside compute); a negative margin
	// can only arise from the joint CPU-offload assignment, where a
	// single-tensor switch is not guaranteed to be locally optimal.
	Margin time.Duration
	// Ruled reports that bubble analysis (Property #1) removed this
	// tensor from the sweep: it was communicated before a bubble, so
	// compression could not help and no candidates were probed for it
	// during the search.
	Ruled bool
	// Candidates lists every probed option sorted by ascending Iter.
	Candidates []CandidateEval
}

// explainDecisions populates rep.Decisions for the final strategy s. It
// runs only when sel.Explain is set; the probes fan out over the engine
// pool like any other F(S) evaluation and are counted in rep.Evals, but
// every one is run (unbounded): the log reports exact iteration times.
// The pool is left prepared with s.
func (sel *Selector) explainDecisions(s *strategy.Strategy, rep *Report, parent int) error {
	if !sel.Explain {
		return nil
	}
	tr := sel.Trace
	spExplain := tr.Begin(parent, "explain")
	explainEvals := rep.Evals
	defer func() { tr.EndEvals(spExplain, int64(rep.Evals-explainEvals)) }()
	engines := sel.engines()
	for _, eng := range engines {
		if err := eng.Prepare(s); err != nil {
			return err
		}
	}

	// The re-probe pass is the selector's only unbounded loop over
	// tensors x candidates after the sweep converged, so it is the one
	// place a degraded topology (with its much slower probe evaluations)
	// could run away. ProbeDeadline bounds it in wall-clock time; on
	// expiry the log is truncated and flagged rather than abandoned.
	probeStart := time.Now()
	n := len(sel.M.Tensors)
	decisions := make([]TensorDecision, n)
	var probes []strategy.Option
	var iters []time.Duration
	seen := make(map[string]bool)
	for idx := 0; idx < n; idx++ {
		if sel.ProbeDeadline > 0 && time.Since(probeStart) > sel.ProbeDeadline {
			rep.Decisions = decisions[:idx]
			rep.ExplainTruncated = true
			return nil
		}
		chosen := s.PerTensor[idx]
		cands, err := sel.candidatesFor(idx)
		if err != nil {
			return err
		}

		// The probe set: the chosen option itself, plus every distinct
		// candidate on every allowed device. The chosen option may be a
		// CPU-offloaded variant that is not in the (GPU) candidate set,
		// and conversely the GPU set omits CPU alternatives, so device
		// variants are expanded here and deduplicated by Key. onDevice
		// hands back the same variant every time, so its chain is memoized
		// once per selection rather than re-derived per tensor.
		probes = probes[:0]
		clear(seen)
		add := func(o strategy.Option) {
			if key := o.Key(); !seen[key] {
				seen[key] = true
				probes = append(probes, o)
			}
		}
		add(chosen)
		for _, cand := range cands {
			if !cand.Compressed() {
				add(cand)
				continue
			}
			for _, dev := range sel.devices {
				add(sel.onDevice(cand, dev))
			}
		}

		if cap(iters) < len(probes) {
			iters = make([]time.Duration, len(probes))
		}
		iters = iters[:len(probes)]
		tsp := wtrace.NoParent
		if tr != nil {
			tsp = tr.BeginTensor(spExplain, "re-probe", idx)
		}
		if err := sel.probePosition(engines, idx, probes, iters, unbounded, tsp); err != nil {
			return err
		}
		rep.Evals += len(probes)
		if tr != nil {
			tr.EndEvals(tsp, int64(len(probes)))
		}
		// probePosition leaves each engine with whatever option it
		// probed last; restore the selection everywhere.
		for _, eng := range engines {
			if err := eng.SetOption(idx, chosen); err != nil {
				return err
			}
		}

		d := TensorDecision{
			Tensor: idx,
			Name:   sel.M.Tensors[idx].Name,
			Chosen: chosen,
			Ruled:  sel.ruled(idx),
		}
		d.Candidates = make([]CandidateEval, len(probes))
		for i := range probes {
			d.Candidates[i] = CandidateEval{Option: probes[i], Iter: iters[i]}
		}
		// Stable sort by iteration time so ties keep probe order (the
		// chosen option first among equals).
		sortEvals(d.Candidates)
		runnerSet := false
		for i := range d.Candidates {
			if !runnerSet && !d.Candidates[i].Option.Equal(chosen) {
				d.RunnerUp = d.Candidates[i].Option
				d.RunnerUpIter = d.Candidates[i].Iter
				runnerSet = true
			}
			if d.Candidates[i].Option.Equal(chosen) {
				d.Candidates[i].Chosen = true
				d.ChosenIter = d.Candidates[i].Iter
			}
		}
		if runnerSet {
			d.Margin = d.RunnerUpIter - d.ChosenIter
		}
		decisions[idx] = d
	}
	rep.Decisions = decisions
	return nil
}

// WriteDecisions renders a decision log as text: tensors with a real
// margin first (widest first), each with its chosen option and the cost
// of switching to the runner-up, then a one-line summary of the ties.
func WriteDecisions(w io.Writer, decs []TensorDecision) {
	fmt.Fprintf(w, "--- selection decisions (%d tensors) ---\n", len(decs))
	order := make([]int, len(decs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return decs[order[a]].Margin > decs[order[b]].Margin
	})
	ties := 0
	for _, i := range order {
		d := decs[i]
		if d.Margin <= 0 && !d.Ruled {
			ties++
			continue
		}
		head := fmt.Sprintf("T%d %s", d.Tensor, d.Name)
		if d.Ruled {
			head += "  (ruled out by bubble analysis)"
		}
		fmt.Fprintln(w, head)
		fmt.Fprintf(w, "    chosen:    %s\n", d.Chosen)
		if d.RunnerUpIter > 0 {
			fmt.Fprintf(w, "    runner-up: %s  (+%v per iteration)\n", d.RunnerUp, d.Margin)
		}
	}
	if ties > 0 {
		fmt.Fprintf(w, "%d tensors are ties: the best alternative predicts the same iteration time\n", ties)
	}
}

// sortEvals stable-sorts candidate evaluations by ascending predicted
// iteration time.
func sortEvals(evals []CandidateEval) {
	for i := 1; i < len(evals); i++ {
		for j := i; j > 0 && evals[j].Iter < evals[j-1].Iter; j-- {
			evals[j], evals[j-1] = evals[j-1], evals[j]
		}
	}
}
