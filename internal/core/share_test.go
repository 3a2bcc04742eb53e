package core

import (
	"fmt"
	"testing"
	"time"

	"espresso/internal/cluster"
	"espresso/internal/cost"
	"espresso/internal/gen"
	"espresso/internal/model"
	"espresso/internal/obs/wtrace"
	"espresso/internal/strategy"
)

// A selection derives and judges things once that its two trajectories
// both need: one seed pass picks both seeds, and the compressed
// trajectory's offload search is held to the bar it must beat. These tests
// hold each shortcut to the search it replaces, on the cases the
// differential tests use.

// shareCase is one selection problem of those tests.
type shareCase struct {
	name string
	m    *model.Model
	c    *cluster.Cluster
	cm   *cost.Models
}

// shareCases lists gen seeds 1–2040, the first 64 two-level 12–24-tensor
// cases and lstm/vgg16 on both testbeds (-short: seeds 1–200, 6 two-level
// cases, lstm only).
func shareCases() []shareCase {
	seeds, large, zoo := uint64(2040), 64, []*model.Model{model.LSTM(), model.VGG16()}
	if testing.Short() {
		seeds, large, zoo = 200, 6, zoo[:1]
	}
	var out []shareCase
	add := func(cs *gen.Case) {
		out = append(out, shareCase{cs.String(), cs.Model, cs.Cluster, cost.MustModels(cs.Cluster, cs.Spec)})
	}
	for seed := uint64(1); seed <= seeds; seed++ {
		add(gen.Generate(seed, gen.Config{}))
	}
	for _, cs := range hierarchicalCases(large) {
		add(cs)
	}
	for _, m := range zoo {
		for _, c := range []*cluster.Cluster{cluster.NVLinkTestbed(8), cluster.PCIeTestbed(8)} {
			out = append(out, shareCase{fmt.Sprintf("%s/%s", m.Name, c.Intra), m, c, cost.MustModels(c, dgc())})
		}
	}
	return out
}

// The shared seed pass returns the winner bestOf picks, running
// everything, over the whole family and, as the compressed trajectory's
// seed, over the compressed uniform seeds alone, at the same count of
// judged seeds — cold, and warm from a random prior on every other case.
func TestSeedPassMatchesSeparateSearches(t *testing.T) {
	t.Parallel()
	for k, sc := range shareCases() {
		var prior *strategy.Strategy
		if k%2 == 1 {
			opts := strategy.Enumerate(sc.c)
			r := gen.New(uint64(k))
			prior = strategy.Uniform(len(sc.m.Tensors), opts[0])
			for i := range prior.PerTensor {
				prior.PerTensor[i] = opts[r.Intn(len(opts))]
			}
		}

		sel := NewSelector(sc.m, sc.c, sc.cm)
		rep := &Report{}
		seed, alt, err := sel.seedPass(prior, true, rep, wtrace.NoParent)
		got := outcomeOf(t, seed, rep, err)

		ref := NewSelector(sc.m, sc.c, sc.cm)
		ref.runAll = true
		refRep := &Report{}
		refSeed, err := ref.bestSeed(prior, refRep, wtrace.NoParent)
		want := outcomeOf(t, refSeed, refRep, err)
		if got.Strategy != want.Strategy || got.Evals != want.Evals {
			t.Fatalf("%s: shared seed pass chose\n %s (%d evals), the full family\n %s (%d evals)", sc.name, got.Strategy, got.Evals, want.Strategy, want.Evals)
		}

		var uniforms []*strategy.Strategy
		for _, o := range ref.candidates {
			if o.Compressed() {
				for _, dev := range ref.devices {
					uniforms = append(uniforms, strategy.Uniform(len(sc.m.Tensors), ref.onDevice(o, dev)))
				}
			}
		}
		if (alt == nil) != (len(uniforms) == 0) {
			t.Fatalf("%s: %d compressed uniform seeds, shared pass returned %v", sc.name, len(uniforms), alt)
		}
		if alt == nil {
			continue
		}
		refAlt, err := ref.bestOf(uniforms, &Report{}, wtrace.NoParent)
		if got, want := outcomeOf(t, alt, rep, nil).Strategy, outcomeOf(t, refAlt, rep, err).Strategy; got != want {
			t.Fatalf("%s: shared seed pass gave the compressed trajectory\n %s, the compressed uniforms alone\n %s", sc.name, got, want)
		}
	}
}

// An offload search held to an incumbent may return a different strategy
// than one that finds the true argmin, but only where its caller rejects
// both: the main path's result is the same, and the compressed
// trajectory's result, held to F(S) of the main path, loses or wins
// against it the same way.
func TestOffloadIncumbentIsExact(t *testing.T) {
	t.Parallel()
	differed := 0
	for _, sc := range shareCases() {
		sel := NewSelector(sc.m, sc.c, sc.cm)
		rep := &Report{}
		seed, altFrom, err := sel.seedPass(nil, true, rep, wtrace.NoParent)
		if err != nil {
			t.Fatal(err)
		}
		if altFrom != nil {
			altFrom = altFrom.Clone()
		}
		s, err := sel.sweepFrom(seed, false, rep, wtrace.NoParent)
		if err != nil {
			t.Fatal(err)
		}
		str := func(s *strategy.Strategy) string { return outcomeOf(t, s, rep, nil).Strategy }
		// offload returns the search held to an incumbent and, with
		// runAll, the search from nothing.
		offload := func(s *strategy.Strategy, ceiling time.Duration) (held, free *strategy.Strategy) {
			t.Helper()
			var out [2]*strategy.Strategy
			for k, runAll := range []bool{false, true} {
				sel.runAll = runAll
				if out[k], err = sel.offloadCPU(s, ceiling, &Report{}, wtrace.NoParent); err != nil {
					t.Fatal(err)
				}
			}
			sel.runAll = false
			return out[0], out[1]
		}
		main, free := offload(s, unbounded)
		if str(main) != str(free) {
			t.Fatalf("%s: offload held to F(S)+1 returned\n %s, searching everything\n %s", sc.name, str(main), str(free))
		}
		if altFrom == nil {
			continue
		}
		a, err := sel.sweepFrom(altFrom, true, rep, wtrace.NoParent)
		if err != nil {
			t.Fatal(err)
		}
		sIter, err := sel.iter(main, nil)
		if err != nil {
			t.Fatal(err)
		}
		held, free := offload(a, sIter)
		if str(held) != str(free) {
			differed++
		}
		// Select's comparison: the compressed trajectory wins only below
		// F(S) of the main one.
		pick := func(alt *strategy.Strategy) string {
			t.Helper()
			altIter, err := sel.iter(alt, nil)
			if err != nil {
				t.Fatal(err)
			}
			if altIter < sIter {
				return str(alt)
			}
			return str(main)
		}
		if got, want := pick(held), pick(free); got != want {
			t.Fatalf("%s: after the comparison with the main trajectory, held offload gives\n %s, searching everything\n %s", sc.name, got, want)
		}
	}
	if differed == 0 {
		t.Error("the incumbent never changed what an offload search returned: nothing above was tested")
	}
	t.Logf("the held compressed-trajectory offload returned a different strategy, rejected either way, in %d cases", differed)
}

// TestBigModelSelectionsPinned pins what the big zoo selections find and
// count; this pins what they simulate at Parallelism 1, so judged work
// that grows later shows as a diff here.
func TestBigModelEventsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("selects ResNet101 and BERT-base: about a second")
	}
	t.Parallel()
	c := cluster.NVLinkTestbed(8)
	cm := cost.MustModels(c, dgc())
	for _, pin := range []struct {
		m      *model.Model
		events int
	}{
		{model.ResNet101(), 12755665},
		{model.BERTBase(), 13066642},
		{model.VGG16(), 833497},
	} {
		_, rep, err := NewSelector(pin.m, c, cm).Select()
		if err != nil {
			t.Fatal(err)
		}
		if rep.events != pin.events {
			t.Errorf("%s/%s/dgc: %d events, pinned %d", pin.m.Name, c.Intra, rep.events, pin.events)
		}
	}
}
