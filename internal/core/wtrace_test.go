package core

import (
	"testing"
	"time"

	"espresso/internal/cluster"
	"espresso/internal/cost"
	"espresso/internal/obs/wtrace"
)

// TestTracedSelectPhaseTree runs a full traced selection and checks the
// recorded span tree is well-formed and that the top-level phases tile
// the request: their summed wall-clock must land within a few percent of
// the end-to-end latency — the property that makes a flight-recorder
// span tree trustworthy as a latency breakdown.
func TestTracedSelectPhaseTree(t *testing.T) {
	c := cluster.NVLinkTestbed(8)
	m := commBound()
	cm := cost.MustModels(c, dgc())

	tr := wtrace.New()
	req := tr.Start("select")
	start := time.Now()
	sel := NewSelector(m, c, cm)
	sel.Trace = req
	_, rep, err := sel.Select()
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	spans := req.Spans()
	req.Release()

	if len(spans) == 0 {
		t.Fatal("traced selection recorded no spans")
	}
	// Well-formed tree: IDs are indices, parents precede children, spans
	// close, per-tensor probe spans point at real tensors.
	for i, sp := range spans {
		if sp.ID != i {
			t.Fatalf("span %d carries ID %d", i, sp.ID)
		}
		if sp.Parent != wtrace.NoParent && (sp.Parent < 0 || sp.Parent >= i) {
			t.Fatalf("span %d has parent %d (must precede it)", i, sp.Parent)
		}
		if sp.End < sp.Start {
			t.Fatalf("span %q ends before it starts: %+v", sp.Name, sp)
		}
		if idx, ok := sp.TensorIndex(); ok && (idx < 0 || idx >= len(m.Tensors)) {
			t.Fatalf("span %q points at tensor %d of %d", sp.Name, idx, len(m.Tensors))
		}
	}

	phases := wtrace.PhaseDurations(spans)
	for _, name := range []string{"seed", "sweep", "finalize"} {
		if phases[name] <= 0 {
			t.Errorf("phase %q missing from trace: %v", name, phases)
		}
	}
	var sum time.Duration
	for _, d := range phases {
		sum += d
	}
	if sum > elapsed {
		t.Fatalf("phases sum %v exceeds end-to-end %v", sum, elapsed)
	}
	// The phases must cover nearly all of the selection; the instrumented
	// Select leaves only nanoseconds between top-level spans. The floor
	// is deliberately loose (90%) to stay robust on noisy CI machines
	// measuring elapsed from just outside the request.
	if float64(sum) < 0.9*float64(elapsed) {
		t.Errorf("phases cover %v of %v (%.1f%%), want >= 90%%",
			sum, elapsed, 100*float64(sum)/float64(elapsed))
	}

	// Eval attribution: the top-level spans' evals must sum to the
	// report's total (every evaluation happens inside some phase).
	var evals int64
	for _, sp := range spans {
		if sp.Parent == wtrace.NoParent {
			evals += sp.Evals
		}
	}
	if evals != int64(rep.Evals) {
		t.Errorf("top-level spans attribute %d evals, report says %d", evals, rep.Evals)
	}
}

// TestTracedSelectionMatchesUntraced pins that tracing is observation
// only: the selected strategy and report odometer are bit-identical with
// and without a tracer attached.
func TestTracedSelectionMatchesUntraced(t *testing.T) {
	c := cluster.PCIeTestbed(4)
	m := commBound()
	cm := cost.MustModels(c, dgc())

	plain := NewSelector(m, c, cm)
	sPlain, repPlain, err := plain.Select()
	if err != nil {
		t.Fatal(err)
	}

	tr := wtrace.New()
	req := tr.Start("select")
	traced := NewSelector(m, c, cm)
	traced.Trace = req
	sTraced, repTraced, err := traced.Select()
	req.Release()
	if err != nil {
		t.Fatal(err)
	}

	if len(sPlain.PerTensor) != len(sTraced.PerTensor) {
		t.Fatal("tracing changed the selected strategy's shape")
	}
	for i := range sPlain.PerTensor {
		if sPlain.PerTensor[i].Key() != sTraced.PerTensor[i].Key() {
			t.Fatalf("tracing changed tensor %d: %s vs %s",
				i, sPlain.PerTensor[i], sTraced.PerTensor[i])
		}
	}
	if repPlain.Evals != repTraced.Evals || repPlain.Iter != repTraced.Iter {
		t.Fatalf("tracing changed the search: evals %d/%d iter %v/%v",
			repPlain.Evals, repTraced.Evals, repPlain.Iter, repTraced.Iter)
	}
}

// TestUntracedProbeLoopDoesNotAllocate pins the hot-path invariant the
// tracer must not break: with Trace nil, probePosition costs exactly
// what it did before instrumentation — the one task-closure allocation
// per call it has always had, and zero allocations per probe (the
// SetOption+Run inner loop, gated at the engine level by
// internal/timeline's TestProbeLoopDoesNotAllocate). A traced selector
// may allocate here; a nil-Trace one must not grow the cost by a single
// allocation.
func TestUntracedProbeLoopDoesNotAllocate(t *testing.T) {
	c := cluster.NVLinkTestbed(4)
	m := commBound()
	cm := cost.MustModels(c, dgc())

	sel := NewSelector(m, c, cm)
	s, _, err := sel.Select()
	if err != nil {
		t.Fatal(err)
	}
	engines := sel.engines()
	for _, eng := range engines {
		if err := eng.Prepare(s); err != nil {
			t.Fatal(err)
		}
	}
	cands, err := sel.candidatesFor(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) == 0 {
		t.Fatal("no candidates for tensor 0")
	}
	probes := cands
	iters := make([]time.Duration, len(probes))

	// Warm up once so lazily-built memo tables do not count.
	if err := sel.probePosition(engines, 0, probes, iters, unbounded, wtrace.NoParent); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := sel.probePosition(engines, 0, probes, iters, unbounded, wtrace.NoParent); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("untraced probePosition allocates %.1f/call, want <= 1 (the task closure); the probe inner loop must stay allocation-free", allocs)
	}
}
