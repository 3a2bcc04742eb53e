package core

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"espresso/internal/cluster"
	"espresso/internal/compress"
	"espresso/internal/cost"
	"espresso/internal/gen"
	"espresso/internal/model"
	"espresso/internal/obs"
	"espresso/internal/obs/wtrace"
	"espresso/internal/strategy"
)

// The Selector judges most candidates without running them: a closed-form
// lower bound that already reaches the incumbent, or a position nothing
// has changed under since its last probe. These tests hold that machinery
// to its contract — it changes how long a selection takes and nothing
// anyone can read from it — by running every selection twice, once with
// the runAll hook forcing each judged candidate through the timeline.

// outcome is everything a selection reports that must not depend on how
// its candidates were judged.
type outcome struct {
	Strategy                               string
	Iter                                   time.Duration
	Evals, Ruled, Offloaded, OffloadSearch int
}

func outcomeOf(t testing.TB, s *strategy.Strategy, rep *Report, err error) outcome {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	buf, err := strategy.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	return outcome{string(buf), rep.Iter, rep.Evals, rep.Ruled, rep.Offloaded, rep.OffloadSearch}
}

// judged is how a selection's candidates were judged and what that cost:
// the same at every Parallelism, except events, which depends on which
// worker engine took which probe once there are several.
type judged struct{ Run, Cut, Bounded, Unchanged, Events int }

// selectOutcome runs one Select and checks the judged-how counters tile
// the evaluation count.
func selectOutcome(t testing.TB, m *model.Model, c *cluster.Cluster, cm *cost.Models, workers int, runAll bool) (outcome, judged) {
	t.Helper()
	sel := NewSelector(m, c, cm)
	sel.Parallelism, sel.runAll, sel.Obs = workers, runAll, obs.NewMetrics()
	s, rep, err := sel.Select()
	out := outcomeOf(t, s, rep, err)
	count := func(name string) int { return int(sel.Obs.Counter(name).Value()) }
	j := judged{count("search.evals_run"), count("search.evals_cut"), count("search.evals_bounded"), count("search.evals_unchanged"), count("search.events")}
	if j.Run+j.Cut+j.Bounded+j.Unchanged != rep.Evals || count("search.evals") != rep.Evals {
		t.Fatalf("run %d + cut %d + bounded %d + unchanged %d != evals %d", j.Run, j.Cut, j.Bounded, j.Unchanged, rep.Evals)
	}
	if runAll && j.Run != rep.Evals {
		t.Fatalf("runAll selection judged %d cut, %d bounded, %d unchanged without running them to the end", j.Cut, j.Bounded, j.Unchanged)
	}
	if j.Events < j.Run {
		t.Fatalf("%d runs to the end simulated only %d events", j.Run, j.Events)
	}
	return out, j
}

// assertBoundedMatches compares the default selection at one and two
// workers against the run-everything reference, and returns the events
// the reference and the default selection simulated.
func assertBoundedMatches(t *testing.T, name string, m *model.Model, c *cluster.Cluster, cm *cost.Models) (all, probed int) {
	t.Helper()
	want, ref := selectOutcome(t, m, c, cm, 1, true)
	got, seq := selectOutcome(t, m, c, cm, 1, false)
	if got != want {
		t.Fatalf("%s: bounded selection differs from the run-everything one\n got %+v\nwant %+v", name, got, want)
	}
	got, par := selectOutcome(t, m, c, cm, 2, false)
	if got != want {
		t.Fatalf("%s, 2 workers: bounded selection differs from the run-everything one\n got %+v\nwant %+v", name, got, want)
	}
	if par.Events = seq.Events; par != seq {
		t.Fatalf("%s: candidates judged differently at 2 workers\n got %+v\nwant %+v", name, par, seq)
	}
	return ref.Events, seq.Events
}

// hierarchicalCases draws n generated 12–24-tensor cases on two-level
// clusters (|C_gpu| = 88, the expensive kind).
func hierarchicalCases(n int) []*gen.Case {
	var out []*gen.Case
	for seed := uint64(1); len(out) < n; seed++ {
		cs := gen.Generate(seed, gen.Config{MinTensors: 12, MaxTensors: 24})
		if cs.Cluster.Machines > 1 && cs.Cluster.GPUsPerMachine > 1 {
			out = append(out, cs)
		}
	}
	return out
}

func TestBoundedSelectionMatchesUnbounded(t *testing.T) {
	t.Parallel() // with the pinned big models: the package's two long tests
	seeds, large := uint64(2040), 64
	if testing.Short() {
		seeds, large = 200, 6
	}
	cases := hierarchicalCases(large)
	for seed := uint64(1); seed <= seeds; seed++ {
		cases = append(cases, gen.Generate(seed, gen.Config{}))
	}
	var all, probed int
	for _, cs := range cases {
		a, p := assertBoundedMatches(t, cs.String(), cs.Model, cs.Cluster, cost.MustModels(cs.Cluster, cs.Spec))
		all, probed = all+a, probed+p
	}
	// What the bound, the stamp, the fork and the stop are for.
	if probed*2 > all {
		t.Errorf("default selections simulated %d events, running everything %d: less than half saved", probed, all)
	}
	t.Logf("events: %d running everything, %d by default", all, probed)
}

func TestBoundedSelectionMatchesUnboundedZoo(t *testing.T) {
	models := []*model.Model{model.LSTM(), model.VGG16()}
	if testing.Short() {
		models = models[:1]
	}
	for _, m := range models {
		for _, c := range []*cluster.Cluster{cluster.NVLinkTestbed(8), cluster.PCIeTestbed(8)} {
			for _, spec := range []compress.Spec{{ID: compress.RandomK, Ratio: 0.01}, dgc(), {ID: compress.EFSignSGD}} {
				name := fmt.Sprintf("%s/%s/%s", m.Name, c.Intra, spec.ID)
				assertBoundedMatches(t, name, m, c, cost.MustModels(c, spec))
			}
		}
	}
}

// The other entry points share the sweep, seed and offload code but
// reach it with different candidate sets, incumbents and engine flags.
func TestBoundedEntryPointsMatchUnbounded(t *testing.T) {
	for seed := uint64(1); seed <= 200; seed++ {
		cs := gen.Generate(seed, gen.Config{})
		cm := cost.MustModels(cs.Cluster, cs.Spec)
		var prior *strategy.Strategy
		var got [2][3]outcome
		for k, runAll := range []bool{false, true} {
			// tiles: the candidates not run to the end are some of the
			// candidates, and when everything is run only the warm prior's
			// second judgement, whose F(S) is known, is among them.
			tiles := func(rep *Report) {
				t.Helper()
				if rest := rep.cut + rep.bounded + rep.unchanged; rest > rep.Evals || (runAll && rest > 1) || rep.cut < 0 || rep.bounded < 0 || rep.unchanged < 0 {
					t.Fatalf("%v (runAll=%v): cut %d + bounded %d + unchanged %d of %d evals", cs, runAll, rep.cut, rep.bounded, rep.unchanged, rep.Evals)
				}
			}
			sel := NewSelector(cs.Model, cs.Cluster, cm)
			sel.runAll = runAll
			s, rep, err := sel.SelectAllCompressed()
			got[k][0] = outcomeOf(t, s, rep, err)
			tiles(rep)
			if rep.events <= 0 {
				t.Fatalf("%v: SelectAllCompressed reports %d events", cs, rep.events)
			}
			if prior == nil {
				prior = s
			}

			// Re-select on the same cluster with compute twice as slow,
			// warm-started from the all-compressed strategy.
			sel.SetComputeScale(2)
			s, rep, err = sel.SelectFrom(prior)
			got[k][1] = outcomeOf(t, s, rep, err)
			tiles(rep)

			ub := NewSelector(cs.Model, cs.Cluster, cm)
			ub.runAll, ub.eng.ZeroCompression = runAll, true
			rep = &Report{}
			if s, err = ub.Algorithm1(rep); err == nil {
				rep.Iter, err = ub.iter(s, rep)
			}
			got[k][2] = outcomeOf(t, s, rep, err)
			tiles(rep)
		}
		if got[0] != got[1] {
			t.Fatalf("%v: bounded {SelectAllCompressed, SelectFrom, UpperBound} differ from run-everything\n got %+v\nwant %+v", cs, got[0], got[1])
		}
		if ub, err := UpperBound(cs.Model, cs.Cluster, cm); err != nil || ub != got[0][2].Iter {
			t.Fatalf("%v: UpperBound %v (err %v), reference %v", cs, ub, err, got[0][2].Iter)
		}
	}
}

// The big zoo models are too slow to run unbounded in tier-1, so their
// numbers at the parent commit are pinned instead: a later drift in
// strategy cost or in what counts as an evaluation is loud.
func TestBigModelSelectionsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("selects ResNet101 and BERT-base: tens of seconds")
	}
	t.Parallel()
	efsignsgd := compress.Spec{ID: compress.EFSignSGD}
	for _, pin := range []struct {
		m     *model.Model
		c     *cluster.Cluster
		spec  compress.Spec
		evals int
		iter  time.Duration
	}{
		{model.ResNet101(), cluster.NVLinkTestbed(8), dgc(), 85660, 180124831},
		{model.ResNet101(), cluster.PCIeTestbed(8), efsignsgd, 170730, 181310599},
		{model.BERTBase(), cluster.NVLinkTestbed(8), dgc(), 70680, 84453428},
		{model.BERTBase(), cluster.PCIeTestbed(8), dgc(), 137994, 182812762},
		{model.VGG16(), cluster.NVLinkTestbed(8), dgc(), 17109, 188319795},
	} {
		_, rep, err := NewSelector(pin.m, pin.c, cost.MustModels(pin.c, pin.spec)).Select()
		if err != nil {
			t.Fatal(err)
		}
		if rep.Evals != pin.evals || rep.Iter != pin.iter {
			t.Errorf("%s/%s/%s: evals %d iter %d ns, pinned %d / %d ns",
				pin.m.Name, pin.c.Intra, pin.spec.ID, rep.Evals, int64(rep.Iter), pin.evals, int64(pin.iter))
		}
	}
}

// parentOrderSeed is the seed phase of a warm re-selection as the parent
// commit ran it: the cold family first, every seed on the timeline, then
// prior against the family's winner.
func parentOrderSeed(t *testing.T, m *model.Model, c *cluster.Cluster, cm *cost.Models, scale float64, prior *strategy.Strategy) (string, int) {
	t.Helper()
	ref := NewSelector(m, c, cm)
	ref.runAll = true
	ref.SetComputeScale(scale)
	rep := &Report{}
	seed, err := ref.bestSeed(nil, rep, wtrace.NoParent)
	if err == nil {
		seed, err = ref.bestOf([]*strategy.Strategy{prior.Clone(), seed}, rep, wtrace.NoParent)
	}
	return outcomeOf(t, seed, rep, err).Strategy, rep.Evals
}

// assertWarmSeedMatchesParent: evaluating prior first and judging the
// family against its F(S) picks the parent's winner (prior unless a seed
// is strictly better, then the lowest-index minimal seed) at the parent's
// evaluation count, and the whole SelectFrom agrees with running
// everything. It returns how many of the family the incumbent dismissed.
func assertWarmSeedMatchesParent(t *testing.T, name string, m *model.Model, c *cluster.Cluster, cm *cost.Models, scale float64, prior *strategy.Strategy) int {
	t.Helper()
	wantSeed, wantEvals := parentOrderSeed(t, m, c, cm, scale, prior)
	var full [2]outcome
	rep := &Report{}
	for k, runAll := range []bool{false, true} {
		sel := NewSelector(m, c, cm)
		sel.runAll = runAll
		sel.SetComputeScale(scale)
		if !runAll {
			seed, err := sel.bestSeed(prior, rep, wtrace.NoParent)
			if got := outcomeOf(t, seed, rep, err).Strategy; got != wantSeed || rep.Evals != wantEvals {
				t.Fatalf("%s: warm seed phase chose\n %s (%d evals), the parent's order\n %s (%d evals)", name, got, rep.Evals, wantSeed, wantEvals)
			}
		}
		s, r, err := sel.SelectFrom(prior)
		full[k] = outcomeOf(t, s, r, err)
	}
	if full[0] != full[1] {
		t.Fatalf("%s: bounded SelectFrom differs from the run-everything one\n got %+v\nwant %+v", name, full[0], full[1])
	}
	return rep.bounded
}

func TestWarmReselectionMatchesParentOrder(t *testing.T) {
	// The checked-in chaos plans: a re-selection per degraded link scale
	// and per membership change, from the strategy selected when healthy.
	m, c, spec := model.LSTM(), cluster.PCIeTestbed(4), dgc()
	healthy, _, err := NewSelector(m, c, cost.MustModels(c, spec)).Select()
	if err != nil {
		t.Fatal(err)
	}
	plans, err := filepath.Glob("../../configs/chaos-*.json")
	if err != nil || len(plans) == 0 {
		t.Fatalf("no chaos plans found: %v", err)
	}
	for _, path := range plans {
		var plan struct {
			Faults []struct {
				Kind  string  `json:"kind"`
				Scale float64 `json:"scale"`
			} `json:"faults"`
		}
		data, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(data, &plan)
		}
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		for _, f := range plan.Faults {
			dc := c
			switch {
			case f.Scale > 0:
				dc, err = c.WithBandwidthScale(1, f.Scale)
			case f.Kind == "leave":
				dc, err = c.WithMachines(c.Machines - 1)
			default:
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			assertWarmSeedMatchesParent(t, path+"/"+f.Kind, m, dc, cost.MustModels(dc, spec), 1, healthy)
		}
	}

	// Generated priors: the case's own selection, or a random assignment,
	// re-selected with the NIC and the GPUs degraded.
	dismissed := 0
	for seed := uint64(1); seed <= 200; seed++ {
		cs := gen.Generate(seed, gen.Config{})
		r := gen.New(seed ^ 0x7761726d) // "warm"
		prior, _, err := NewSelector(cs.Model, cs.Cluster, cost.MustModels(cs.Cluster, cs.Spec)).Select()
		if err != nil {
			t.Fatal(err)
		}
		if seed%2 == 1 {
			opts := strategy.Enumerate(cs.Cluster)
			for i := range prior.PerTensor {
				prior.PerTensor[i] = opts[r.Intn(len(opts))]
			}
		}
		dc, err := cs.Cluster.WithBandwidthScale(1, r.LogUniform(0.05, 1))
		if err != nil {
			t.Fatal(err)
		}
		scale := []float64{1, 2.5}[r.Intn(2)]
		dismissed += assertWarmSeedMatchesParent(t, cs.String(), cs.Model, dc, cost.MustModels(dc, cs.Spec), scale, prior)
	}
	if dismissed == 0 {
		t.Error("no prior's F(S) dismissed a single seed: the warm incumbent is not reaching the seed phase")
	}
}
