package core

import (
	"testing"
	"time"

	"espresso/internal/cluster"
	"espresso/internal/compress"
	"espresso/internal/cost"
	"espresso/internal/model"
	"espresso/internal/obs/wtrace"
	"espresso/internal/strategy"
)

func explainSelector(t *testing.T, parallelism int) (*Selector, *model.Model) {
	t.Helper()
	m := model.LSTM()
	c := cluster.NVLinkTestbed(2)
	cm, err := cost.NewModels(c, compress.Spec{ID: compress.DGC, Ratio: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	sel := NewSelector(m, c, cm)
	sel.Parallelism = parallelism
	sel.Explain = true
	return sel, m
}

func TestExplainCoversEveryTensor(t *testing.T) {
	sel, m := explainSelector(t, 1)
	s, rep, err := sel.Select()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Decisions) != m.NumTensors() {
		t.Fatalf("decision log covers %d tensors, want %d", len(rep.Decisions), m.NumTensors())
	}
	ruled := 0
	for i, d := range rep.Decisions {
		if d.Tensor != i || d.Name != m.Tensors[i].Name {
			t.Errorf("decision %d identifies tensor %d %q, want %d %q", i, d.Tensor, d.Name, i, m.Tensors[i].Name)
		}
		if !d.Chosen.Equal(s.PerTensor[i]) {
			t.Errorf("tensor %d: logged choice %s, selected %s", i, d.Chosen, s.PerTensor[i])
		}
		// ChosenIter is F(S) of the final strategy — the same for every
		// tensor, and the selection's own prediction.
		if d.ChosenIter != rep.Iter {
			t.Errorf("tensor %d: chosen iter %v, want F(S) = %v", i, d.ChosenIter, rep.Iter)
		}
		if len(d.Candidates) < 2 {
			t.Errorf("tensor %d: only %d candidates probed", i, len(d.Candidates))
		}
		chosenSeen := false
		for j, c := range d.Candidates {
			if j > 0 && c.Iter < d.Candidates[j-1].Iter {
				t.Errorf("tensor %d: candidates not sorted at %d", i, j)
			}
			if c.Chosen {
				chosenSeen = true
			}
		}
		if !chosenSeen {
			t.Errorf("tensor %d: no candidate marked chosen", i)
		}
		// The sweep converged: no single-tensor GPU move can beat the
		// final strategy, so the margin over the runner-up cannot be
		// negative (CPU-offload interplay aside, which LSTM on this
		// testbed does not trigger: nothing is offloaded).
		if rep.Offloaded == 0 && d.Margin < 0 {
			t.Errorf("tensor %d: negative margin %v without offloading", i, d.Margin)
		}
		if d.Ruled {
			ruled++
		}
	}
	if ruled != rep.Ruled {
		t.Errorf("decision log marks %d tensors ruled out, report says %d", ruled, rep.Ruled)
	}
}

func TestExplainOffByDefault(t *testing.T) {
	sel, _ := explainSelector(t, 1)
	sel.Explain = false
	_, rep, err := sel.Select()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Decisions != nil {
		t.Fatalf("decision log populated without Explain: %d entries", len(rep.Decisions))
	}
}

// The explain pass must not perturb the selection, and its probes must
// be deterministic across parallelism settings like every other F(S)
// fan-out.
func TestExplainDeterministicAcrossParallelism(t *testing.T) {
	sel1, _ := explainSelector(t, 1)
	s1, rep1, err := sel1.Select()
	if err != nil {
		t.Fatal(err)
	}
	sel4, _ := explainSelector(t, 4)
	s4, rep4, err := sel4.Select()
	if err != nil {
		t.Fatal(err)
	}
	if len(s1.PerTensor) != len(s4.PerTensor) {
		t.Fatal("selected strategies differ in size across parallelism")
	}
	for i := range s1.PerTensor {
		if !s1.PerTensor[i].Equal(s4.PerTensor[i]) {
			t.Fatalf("tensor %d: strategies differ across parallelism", i)
		}
	}
	if len(rep1.Decisions) != len(rep4.Decisions) {
		t.Fatalf("decision counts differ: %d vs %d", len(rep1.Decisions), len(rep4.Decisions))
	}
	for i := range rep1.Decisions {
		d1, d4 := rep1.Decisions[i], rep4.Decisions[i]
		if !d1.Chosen.Equal(d4.Chosen) || d1.Margin != d4.Margin {
			t.Errorf("tensor %d: decisions differ across parallelism: %s/%v vs %s/%v",
				i, d1.Chosen, d1.Margin, d4.Chosen, d4.Margin)
		}
		if len(d1.Candidates) != len(d4.Candidates) {
			t.Errorf("tensor %d: candidate counts differ: %d vs %d", i, len(d1.Candidates), len(d4.Candidates))
			continue
		}
		for j := range d1.Candidates {
			if d1.Candidates[j].Iter != d4.Candidates[j].Iter {
				t.Errorf("tensor %d candidate %d: iters differ: %v vs %v",
					i, j, d1.Candidates[j].Iter, d4.Candidates[j].Iter)
			}
		}
	}
}

// The explain pass probes every candidate on every device. Each device
// variant must be the selector's one copy of it (onDevice), or the chain
// memo, keyed on the option's Steps array, misses on every probe: the
// chain is derived again and both the memo and its arena grow. Once a
// pass has warmed the memo, another costs about one allocation per
// candidate (the dedup key) and no chain derivations.
func TestExplainReusesMemoizedChains(t *testing.T) {
	m, c := model.LSTM(), cluster.NVLinkTestbed(8)
	sel := NewSelector(m, c, cost.MustModels(c, compress.Spec{ID: compress.DGC, Ratio: 0.01}))
	sel.Explain = true
	s, rep, err := sel.Select()
	if err != nil {
		t.Fatal(err)
	}
	probes := 0
	for _, d := range rep.Decisions {
		probes += len(d.Candidates)
	}
	allocs := testing.AllocsPerRun(3, func() {
		if err := sel.explainDecisions(s, rep, wtrace.NoParent); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1.25*float64(probes) {
		t.Errorf("a warm explain pass over %d probes allocates %v times: device variants are re-deriving their chains", probes, allocs)
	}
}

// A tight ProbeDeadline truncates the decision log instead of letting
// the re-probe pass run unbounded; the selection itself is unaffected.
func TestExplainProbeDeadlineTruncates(t *testing.T) {
	sel, m := explainSelector(t, 1)
	sel.ProbeDeadline = 1 // nanosecond: expires before the first tensor
	s, rep, err := sel.Select()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.ExplainTruncated {
		t.Fatal("ExplainTruncated not set under a 1ns deadline")
	}
	if len(rep.Decisions) >= m.NumTensors() {
		t.Fatalf("decision log has %d entries, expected truncation", len(rep.Decisions))
	}
	if len(s.PerTensor) != m.NumTensors() {
		t.Fatalf("selection incomplete: %d options", len(s.PerTensor))
	}

	// An untruncated run does not set the flag.
	sel2, _ := explainSelector(t, 1)
	sel2.ProbeDeadline = time.Hour
	_, rep2, err := sel2.Select()
	if err != nil {
		t.Fatal(err)
	}
	if rep2.ExplainTruncated || len(rep2.Decisions) != m.NumTensors() {
		t.Fatalf("generous deadline truncated: %d decisions, flag %v",
			len(rep2.Decisions), rep2.ExplainTruncated)
	}
}

// SelectFrom never returns a strategy worse than the prior under the
// selector's own cost models — the guarantee degradation-triggered
// re-selection depends on.
func TestSelectFromNeverWorseThanPrior(t *testing.T) {
	sel, m := explainSelector(t, 1)
	sel.Explain = false

	// Prior: the selector's own choice on a healthy cluster, then
	// re-selected on a cluster with 10x less inter-machine bandwidth.
	prior, _, err := sel.Select()
	if err != nil {
		t.Fatal(err)
	}
	degraded, err := sel.C.WithBandwidthScale(1, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	cm, err := cost.NewModels(degraded, sel.Cost.Spec)
	if err != nil {
		t.Fatal(err)
	}
	dsel := NewSelector(m, degraded, cm)
	before := evalIter(t, m, degraded, cm, prior)
	after, rep, err := dsel.SelectFrom(prior)
	if err != nil {
		t.Fatal(err)
	}
	got := evalIter(t, m, degraded, cm, after)
	if got > before {
		t.Fatalf("SelectFrom made things worse on the degraded topology: %v > %v", got, before)
	}
	if rep.Iter != got {
		t.Fatalf("report iter %v, engine says %v", rep.Iter, got)
	}

	// Mismatched prior is rejected.
	if _, _, err := dsel.SelectFrom(&strategy.Strategy{}); err == nil {
		t.Fatal("SelectFrom accepted a mismatched prior")
	}
	if _, _, err := dsel.SelectFrom(nil); err == nil {
		t.Fatal("SelectFrom accepted a nil prior")
	}
}
