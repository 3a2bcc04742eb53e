package core_test

import (
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"espresso/internal/chaos"
	"espresso/internal/cluster"
	"espresso/internal/compress"
	"espresso/internal/core"
	"espresso/internal/cost"
	"espresso/internal/gen"
	"espresso/internal/jobspec"
	"espresso/internal/model"
	"espresso/internal/obs"
	"espresso/internal/obs/wtrace"
	"espresso/internal/oracle/diff"
	"espresso/internal/par"
	"espresso/internal/strategy"
	"espresso/internal/timeline"
)

// The paper's claims about the Selector are checked on one corpus, each
// case selected once per configuration. Each Test below is one property
// over those results, naming every case it fails on; to add one, compute
// what it needs in caseResult.run and call eachCase. Most hold a shortcut
// (a candidate judged unrun, a search the trajectories share) to the
// search it replaces, which the runAll hook runs instead.

// corpusCase is one selection problem, or a checked-in chaos plan. key
// names it in failure messages and the golden; seed is the gen seed of a
// default generated case, 0 for the others.
type corpusCase struct {
	key, plan string
	seed      uint64
	zoo       bool
	m         *model.Model
	c         *cluster.Cluster
	spec      compress.Spec
}

// corpus lists gen seeds 1–2040, the first 64 two-level 12–24-tensor cases
// (|C_gpu| = 88, the expensive kind), lstm/vgg16 × both ×8 testbeds ×
// three compressors, and configs/chaos-*.json; short keeps seeds 1–200, 6
// two-level cases and lstm.
func corpus(short bool) []corpusCase {
	seeds, large, zoo := uint64(2040), 64, []*model.Model{model.LSTM(), model.VGG16()}
	if short {
		seeds, large, zoo = 200, 6, zoo[:1]
	}
	var out []corpusCase
	for seed := uint64(1); seed <= seeds; seed++ {
		cs := gen.Generate(seed, gen.Config{})
		out = append(out, corpusCase{key: fmt.Sprintf("gen/%d", seed), seed: seed, m: cs.Model, c: cs.Cluster, spec: cs.Spec})
	}
	for seed := uint64(1); large > 0; seed++ {
		cs := gen.Generate(seed, gen.Config{MinTensors: 12, MaxTensors: 24})
		if cs.Cluster.Machines > 1 && cs.Cluster.GPUsPerMachine > 1 {
			out = append(out, corpusCase{key: fmt.Sprintf("large/%d", seed), m: cs.Model, c: cs.Cluster, spec: cs.Spec})
			large--
		}
	}
	for _, m := range zoo {
		for _, c := range []*cluster.Cluster{cluster.NVLinkTestbed(8), cluster.PCIeTestbed(8)} {
			for _, spec := range []compress.Spec{{ID: compress.RandomK, Ratio: 0.01}, dgc, {ID: compress.EFSignSGD}} {
				out = append(out, corpusCase{key: fmt.Sprintf("zoo/%s/%s/%s", m.Name, c.Intra, spec.ID), zoo: true, m: m, c: c, spec: spec})
			}
		}
	}
	plans, _ := filepath.Glob("../../configs/chaos-*.json")
	for _, path := range plans {
		out = append(out, corpusCase{key: "chaos/" + filepath.Base(path), plan: path})
	}
	return out
}

var dgc = compress.Spec{ID: compress.DGC, Ratio: 0.01}

// outcome is everything a selection reports that must not depend on how
// its candidates were judged.
type outcome struct {
	Strategy                               string
	Iter                                   time.Duration
	Evals, Ruled, Offloaded, OffloadSearch int
}

// judged is how a selection's candidates were judged: the same at every
// Parallelism, except Events, which depends on which worker probed what.
type judged struct{ Run, Cut, Bounded, Unchanged, Events int }

// selection is one selection's report; counted, its published search.evals.
type selection struct {
	outcome
	judged
	counted int
}

// caseResult is what the pass computed for one case. err, the error that
// ended the computation, fails every property.
type caseResult struct {
	corpusCase
	err           error
	ref, seq, par selection     // Select: running everything, by default, by default at 2 workers
	ub            time.Duration // UpperBound
	golden        []string      // the case's lines of the selections golden
	seeds         struct {
		got, want    outcome // the shared seed pass's seed; bestSeed running everything
		alt, wantAlt string  // its compressed-trajectory seed; bestOf running everything over the compressed uniforms
		uniforms     int
	}
	offload struct {
		main, mainFree string // the main path's offload search held to F(S)+1; from nothing
		pick, pickFree string // Select's pick after the compressed trajectory's held search; after its free one
		differed       bool   // the compressed trajectory's held and free searches returned different strategies
	}
	entry *[2][3]selection // gen 1–200: see entryPoints
	warm  []*warmResult    // gen 1–200, and one per re-selecting fault of a plan
}

// must ends a case's computation on err; catch hands the error back.
type mustError struct{ error }

func must(err error) {
	if err != nil {
		panic(mustError{err})
	}
}

func must1[T any](v T, err error) T {
	must(err)
	return v
}

func catch(run func()) (err error) {
	defer func() {
		switch p := recover().(type) {
		case nil:
		case mustError:
			err = p.error
		default:
			panic(p)
		}
	}()
	run()
	return nil
}

func str(s *strategy.Strategy) string { return string(must1(strategy.Marshal(s))) }

func outcomeOf(s *strategy.Strategy, rep *core.Report) outcome {
	return outcome{str(s), rep.Iter, rep.Evals, rep.Ruled, rep.Offloaded, rep.OffloadSearch}
}

// reported reads how rep's candidates were judged off rep itself.
func reported(s *strategy.Strategy, rep *core.Report) selection {
	cut, bounded, unchanged, events := rep.Judged()
	return selection{outcomeOf(s, rep), judged{rep.Evals - cut - bounded - unchanged, cut, bounded, unchanged, events}, rep.Evals}
}

func selector(m *model.Model, c *cluster.Cluster, cm *cost.Models, runAll bool) *core.Selector {
	sel := core.NewSelector(m, c, cm)
	sel.SetRunAll(runAll)
	return sel
}

// selectOnce runs one Select and reads how it judged its candidates off
// the search.* counters it published.
func selectOnce(m *model.Model, c *cluster.Cluster, cm *cost.Models, workers int, runAll bool) (selection, *strategy.Strategy) {
	sel := selector(m, c, cm, runAll)
	sel.Parallelism, sel.Obs = workers, obs.NewMetrics()
	s, rep, err := sel.Select()
	must(err)
	count := func(name string) int { return int(sel.Obs.Counter(name).Value()) }
	j := judged{count("search.evals_run"), count("search.evals_cut"), count("search.evals_bounded"), count("search.evals_unchanged"), count("search.events")}
	return selection{outcomeOf(s, rep), j, count("search.evals")}, s
}

// randomize gives every tensor of s a random option.
func randomize(s *strategy.Strategy, c *cluster.Cluster, rnd *gen.Rand) *strategy.Strategy {
	opts := strategy.Enumerate(c)
	for i := range s.PerTensor {
		s.PerTensor[i] = opts[rnd.Intn(len(opts))]
	}
	return s
}

// run computes everything the properties read for case k of the corpus.
func (r *caseResult) run(k int) {
	if r.plan != "" {
		r.runPlan()
		return
	}
	cm := cost.MustModels(r.c, r.spec)
	var s *strategy.Strategy
	r.ref, _ = selectOnce(r.m, r.c, cm, 1, true)
	r.seq, s = selectOnce(r.m, r.c, cm, 1, false)
	r.par, _ = selectOnce(r.m, r.c, cm, 2, false)
	r.ub = must1(core.UpperBound(r.m, r.c, cm))
	r.golden = []string{fmt.Sprintf("%s %s iter=%d evals=%d ruled=%d offloaded=%d offload_search=%d ub=%d",
		r.key, hash(r.seq.Strategy), int64(r.seq.Iter), r.seq.Evals, r.seq.Ruled, r.seq.Offloaded, r.seq.OffloadSearch, int64(r.ub))}
	r.share(cm, k)
	if r.seed > 0 && r.seed%4 == 0 {
		after, rs, err := chaos.Reselect(r.m, r.c, r.spec, s, chaos.ReselectOptions{InterScale: 0.3, GPUScale: 2, CPUScale: 1.5})
		must(err)
		r.golden = append(r.golden, fmt.Sprintf("reselect/%d %s before=%d after=%d adopted=%v",
			r.seed, hash(str(after)), int64(rs.Before), int64(rs.After), rs.Adopted))
	}
	if r.seed == 0 || r.seed > 200 {
		return
	}
	r.entryPoints(cm)
	// The case's own selection, or on odd seeds a random assignment,
	// re-selected with the NIC and the GPUs degraded.
	rnd := gen.New(r.seed ^ 0x7761726d) // "warm"
	prior := s.Clone()
	if r.seed%2 == 1 {
		randomize(prior, r.c, rnd)
	}
	dc := must1(r.c.WithBandwidthScale(1, rnd.LogUniform(0.05, 1)))
	slow := must1(cost.MustModels(dc, r.spec).WithDeviceScale([]float64{1, 2.5}[rnd.Intn(2)], 1))
	r.warm = []*warmResult{warmReselect("", r.m, dc, slow, prior)}
}

// share runs the shared seed pass (warm from a random prior on odd k) and
// the held offload searches after the cold one, next to the searches they
// replace.
func (r *caseResult) share(cm *cost.Models, k int) {
	n := len(r.m.Tensors)
	sel, rep := core.NewSelector(r.m, r.c, cm), &core.Report{}
	seed, altFrom, err := core.SeedPass(sel, nil, true, rep, wtrace.NoParent)
	must(err)
	var prior *strategy.Strategy
	got, gotAlt, gotRep := seed, altFrom, rep
	if k%2 == 1 {
		prior = randomize(strategy.Uniform(n, strategy.NoCompression(r.c)), r.c, gen.New(uint64(k)))
		gotRep = &core.Report{}
		got, gotAlt, err = core.SeedPass(core.NewSelector(r.m, r.c, cm), prior, true, gotRep, wtrace.NoParent)
		must(err)
	}
	ref, refRep := selector(r.m, r.c, cm, true), &core.Report{}
	p := &r.seeds
	p.got = outcomeOf(got, gotRep)
	p.want = outcomeOf(must1(core.BestSeed(ref, prior, refRep, wtrace.NoParent)), refRep)
	var uniforms []*strategy.Strategy
	for _, o := range core.CompressedOptions(ref) {
		uniforms = append(uniforms, strategy.Uniform(n, o))
	}
	if p.uniforms = len(uniforms); gotAlt != nil {
		p.alt = str(gotAlt)
		if len(uniforms) > 0 {
			p.wantAlt = str(must1(core.BestOf(ref, uniforms, &core.Report{}, wtrace.NoParent)))
		}
	}

	// sweepFrom rewrites its seed in place, and both can be one seed.
	if altFrom != nil {
		altFrom = altFrom.Clone()
	}
	// offload returns the search held to ceiling and the one from nothing.
	offload := func(s *strategy.Strategy, ceiling time.Duration) (held, free *strategy.Strategy) {
		held = must1(core.OffloadBelow(sel, s, ceiling, &core.Report{}, wtrace.NoParent))
		sel.SetRunAll(true)
		free = must1(core.OffloadBelow(sel, s, ceiling, &core.Report{}, wtrace.NoParent))
		sel.SetRunAll(false)
		return held, free
	}
	main, free := offload(must1(core.SweepFrom(sel, seed, false, rep, wtrace.NoParent)), timeline.NoLimit)
	r.offload.main, r.offload.mainFree = str(main), str(free)
	if altFrom == nil {
		return
	}
	a := must1(core.SweepFrom(sel, altFrom, true, rep, wtrace.NoParent))
	sIter := must1(core.Iter(sel, main, nil))
	held, free := offload(a, sIter)
	r.offload.differed = str(held) != str(free)
	// Select's comparison: the compressed trajectory wins only below F(S)
	// of the main one.
	pick := func(alt *strategy.Strategy) string {
		if must1(core.Iter(sel, alt, nil)) < sIter {
			return str(alt)
		}
		return str(main)
	}
	r.offload.pick, r.offload.pickFree = pick(held), pick(free)
}

var entryPointNames = [3]string{"SelectAllCompressed", "SelectFrom", "UpperBound"}

// entryPoints runs, by default (row 0) and running everything (row 1),
// SelectAllCompressed, SelectFrom from it with the GPUs twice as slow, and
// UpperBound's search: other candidate sets, incumbents and cost models.
func (r *caseResult) entryPoints(cm *cost.Models) {
	slow := must1(cm.WithDeviceScale(2, 1))
	r.entry = new([2][3]selection)
	var prior *strategy.Strategy
	for k, runAll := range []bool{false, true} {
		s, rep, err := selector(r.m, r.c, cm, runAll).SelectAllCompressed()
		must(err)
		if prior == nil {
			prior = s
		}
		r.entry[k][0] = reported(s, rep)
		s, rep, err = selector(r.m, r.c, slow, runAll).SelectFrom(prior)
		must(err)
		r.entry[k][1] = reported(s, rep)
		ub, rep := selector(r.m, r.c, cm.WithFreeCompression(), runAll), &core.Report{}
		s = must1(ub.Algorithm1(rep))
		rep.Iter = must1(core.Iter(ub, s, rep))
		r.entry[k][2] = reported(s, rep)
	}
}

// warmResult is a warm re-selection next to the family-first order of its
// seed phase: the cold family, every seed on the timeline, then prior
// against the family's winner.
type warmResult struct {
	fault          string     // the plan's fault kind, "" for a generated prior
	seed, wantSeed outcome    // the warm seed phase; the family-first order
	from           [2]outcome // SelectFrom by default; running everything
	dismissed      int        // family seeds the prior's F(S) dismissed
}

func warmReselect(fault string, m *model.Model, c *cluster.Cluster, cm *cost.Models, prior *strategy.Strategy) *warmResult {
	w := &warmResult{fault: fault}
	ref, rep := selector(m, c, cm, true), &core.Report{}
	seed := must1(core.BestSeed(ref, nil, rep, wtrace.NoParent))
	w.wantSeed = outcomeOf(must1(core.BestOf(ref, []*strategy.Strategy{prior.Clone(), seed}, rep, wtrace.NoParent)), rep)
	sel, rep := core.NewSelector(m, c, cm), &core.Report{}
	w.seed = outcomeOf(must1(core.BestSeed(sel, prior, rep, wtrace.NoParent)), rep)
	_, w.dismissed, _, _ = rep.Judged()
	for k, from := range []*core.Selector{sel, selector(m, c, cm, true)} {
		s, rep, err := from.SelectFrom(prior)
		must(err)
		w.from[k] = outcomeOf(s, rep)
	}
	return w
}

// runPlan re-selects warm from the healthy strategy per degraded link
// scale and membership change of the plan, and hashes its report.
func (r *caseResult) runPlan() {
	plan := must1(chaos.Load(r.plan))
	m, c := model.LSTM(), cluster.PCIeTestbed(4)
	healthy, _, err := core.NewSelector(m, c, cost.MustModels(c, dgc)).Select()
	must(err)
	for _, f := range plan.Faults {
		dc := c
		switch {
		case f.Scale > 0:
			dc = must1(c.WithBandwidthScale(1, f.Scale))
		case f.Kind == chaos.Leave:
			dc = must1(c.WithMachines(c.Machines - 1))
		default:
			continue
		}
		r.warm = append(r.warm, warmReselect(string(f.Kind), m, dc, cost.MustModels(dc, dgc), healthy))
	}
	r.golden = []string{r.key + " " + chaosReportHash(plan)}
}

// chaosReportHash runs a plan the way `espresso-chaos -plan path -iters 8
// -deterministic` does on that command's default job (lstm, NVLink, four
// machines, dgc 0.01) and hashes the report it would write.
func chaosReportHash(plan *chaos.Plan) string {
	r := must1(jobspec.Job{Model: jobspec.ModelSpec{Preset: "lstm"},
		Cluster: jobspec.ClusterSpec{Preset: "nvlink", Machines: 4}, Algorithm: jobspec.AlgorithmSpec{Name: "dgc", Ratio: 0.01}}.Resolve())
	healthy, _, err := r.Strategy(jobspec.Espresso, nil)
	must(err)
	runner := must1(chaos.NewRunner(r.Model, r.Cluster, r.Spec, healthy, plan))
	runner.Deterministic = true
	rep, runErr := runner.Run(8)
	h := hash(string(must1(json.MarshalIndent(rep, "", "  "))))
	if runErr != nil {
		return h + " err=" + runErr.Error()
	}
	return h
}

func hash(s string) string {
	h := fnv.New64a()
	h.Write([]byte(s))
	return fmt.Sprintf("%016x", h.Sum64())
}

// pass computes the corpus once per test binary, over GOMAXPROCS workers
// that take the jobs from the end, where the heaviest are.
var pass = sync.OnceValue(func() []*caseResult {
	var cases []*caseResult
	for _, cc := range corpus(testing.Short()) {
		cases = append(cases, &caseResult{corpusCase: cc})
	}
	par.Each(len(cases), runtime.GOMAXPROCS(0), func(_, i int) error {
		k := len(cases) - 1 - i
		cases[k].err = catch(func() { cases[k].run(k) })
		return nil
	})
	return cases
})

// eachCase checks property on every case, naming each it fails on, and
// gives up on the property after ten.
func eachCase(t *testing.T, property func(r *caseResult) error) {
	t.Helper()
	failed := 0
	for _, r := range pass() {
		err := r.err
		if err == nil {
			err = property(r)
		}
		if err != nil {
			t.Errorf("%s: %v", r.key, err)
			if failed++; failed == 10 {
				t.Fatal("more than 10 cases fail")
			}
		}
	}
}

// boundedMatches holds a case's default selections, at 1 and 2 workers, to
// the one running everything.
func boundedMatches(r *caseResult) error {
	for i, s := range []selection{r.ref, r.seq, r.par} {
		name := [...]string{"running everything", "default", "default, 2 workers"}[i]
		if j := s.judged; j.Run+j.Cut+j.Bounded+j.Unchanged != s.Evals || s.counted != s.Evals {
			return fmt.Errorf("%s: run %d + cut %d + bounded %d + unchanged %d != evals %d (published %d)", name, j.Run, j.Cut, j.Bounded, j.Unchanged, s.Evals, s.counted)
		}
		if i == 0 && s.Run != s.Evals {
			return fmt.Errorf("runAll selection judged %d cut, %d bounded, %d unchanged without running them to the end", s.Cut, s.Bounded, s.Unchanged)
		}
		if s.Events < s.Run {
			return fmt.Errorf("%s: %d runs to the end simulated only %d events", name, s.Run, s.Events)
		}
	}
	if r.seq.outcome != r.ref.outcome {
		return fmt.Errorf("bounded selection differs from the run-everything one\n got %+v\nwant %+v", r.seq.outcome, r.ref.outcome)
	}
	if r.par.outcome != r.ref.outcome {
		return fmt.Errorf("2 workers: bounded selection differs from the run-everything one\n got %+v\nwant %+v", r.par.outcome, r.ref.outcome)
	}
	seq, par := r.seq.judged, r.par.judged
	if par.Events = seq.Events; par != seq {
		return fmt.Errorf("candidates judged differently at 2 workers\n got %+v\nwant %+v", par, seq)
	}
	return nil
}

func TestBoundedSelectionMatchesUnbounded(t *testing.T) {
	t.Parallel()
	var all, probed int
	eachCase(t, func(r *caseResult) error {
		if r.zoo {
			return nil
		}
		if err := boundedMatches(r); err != nil {
			return err
		}
		all, probed = all+r.ref.Events, probed+r.seq.Events
		return nil
	})
	// What the bound, the stamp, the fork and the stop are for.
	if probed*2 > all {
		t.Errorf("default selections of the generated cases simulated %d events, running everything %d: less than half saved", probed, all)
	}
	t.Logf("events: %d running everything, %d by default", all, probed)
}

// The zoo models on the paper's testbeds, held to the same property.
func TestBoundedSelectionMatchesUnboundedZoo(t *testing.T) {
	t.Parallel()
	eachCase(t, func(r *caseResult) error {
		if !r.zoo {
			return nil
		}
		return boundedMatches(r)
	})
}

func TestBoundedEntryPointsMatchUnbounded(t *testing.T) {
	t.Parallel()
	eachCase(t, func(r *caseResult) error {
		if r.entry == nil {
			return nil
		}
		for k, row := range r.entry {
			runAll := k == 1
			for i, e := range row {
				// Running everything, only the warm prior's second
				// judgement, whose F(S) is known, is not run to the end.
				if rest := e.Cut + e.Bounded + e.Unchanged; rest > e.Evals || (runAll && rest > 1) || e.Cut < 0 || e.Bounded < 0 || e.Unchanged < 0 {
					return fmt.Errorf("%s (runAll=%v): cut %d + bounded %d + unchanged %d of %d evals", entryPointNames[i], runAll, e.Cut, e.Bounded, e.Unchanged, e.Evals)
				}
			}
			if row[0].Events <= 0 {
				return fmt.Errorf("SelectAllCompressed (runAll=%v) reports %d events", runAll, row[0].Events)
			}
		}
		for i, name := range entryPointNames {
			if got, want := r.entry[0][i].outcome, r.entry[1][i].outcome; got != want {
				return fmt.Errorf("bounded %s differs from the run-everything one\n got %+v\nwant %+v", name, got, want)
			}
		}
		if want := r.entry[0][2].Iter; r.ub != want {
			return fmt.Errorf("UpperBound %v, reference %v", r.ub, want)
		}
		return nil
	})
}

// Evaluating prior first and judging the family against its F(S) picks
// the family-first order's winner (prior unless a seed is strictly better,
// then the lowest-index minimal seed) at its evaluation count, and the
// whole SelectFrom agrees with running everything.
func TestWarmReselectionMatchesParentOrder(t *testing.T) {
	t.Parallel()
	dismissed, faults := 0, 0
	eachCase(t, func(r *caseResult) error {
		for _, w := range r.warm {
			where := ""
			if w.fault != "" {
				faults, where = faults+1, w.fault+" fault: "
			} else {
				dismissed += w.dismissed
			}
			if w.seed.Strategy != w.wantSeed.Strategy || w.seed.Evals != w.wantSeed.Evals {
				return fmt.Errorf("%swarm seed phase chose\n %s (%d evals), the family-first order\n %s (%d evals)", where, w.seed.Strategy, w.seed.Evals, w.wantSeed.Strategy, w.wantSeed.Evals)
			}
			if w.from[0] != w.from[1] {
				return fmt.Errorf("%sbounded SelectFrom differs from the run-everything one\n got %+v\nwant %+v", where, w.from[0], w.from[1])
			}
		}
		return nil
	})
	if faults == 0 {
		t.Error("no chaos plan fault re-selected: configs/chaos-*.json missing")
	}
	if dismissed == 0 {
		t.Error("no prior's F(S) dismissed a single seed: the warm incumbent is not reaching the seed phase")
	}
}

// The shared seed pass returns the winner bestOf picks, running
// everything, over the whole family and, as the compressed trajectory's
// seed, over the compressed uniform seeds alone, at the same evaluation
// count.
func TestSeedPassMatchesSeparateSearches(t *testing.T) {
	t.Parallel()
	eachCase(t, func(r *caseResult) error {
		p := r.seeds
		if p.got.Strategy != p.want.Strategy || p.got.Evals != p.want.Evals {
			return fmt.Errorf("shared seed pass chose\n %s (%d evals), the full family\n %s (%d evals)", p.got.Strategy, p.got.Evals, p.want.Strategy, p.want.Evals)
		}
		if (p.alt == "") != (p.uniforms == 0) {
			return fmt.Errorf("%d compressed uniform seeds, shared pass returned %q", p.uniforms, p.alt)
		}
		if p.alt != p.wantAlt {
			return fmt.Errorf("shared seed pass gave the compressed trajectory\n %s, the compressed uniforms alone\n %s", p.alt, p.wantAlt)
		}
		return nil
	})
}

// An offload search held to an incumbent may return another strategy than
// the true argmin only where its caller rejects both: the main path's is
// the same, and the compressed trajectory's, held to the main path's F(S),
// loses or wins against it the same way.
func TestOffloadIncumbentIsExact(t *testing.T) {
	t.Parallel()
	differed := 0
	eachCase(t, func(r *caseResult) error {
		o := r.offload
		if o.main != o.mainFree {
			return fmt.Errorf("offload held to F(S)+1 returned\n %s, searching everything\n %s", o.main, o.mainFree)
		}
		if o.pick != o.pickFree {
			return fmt.Errorf("after the comparison with the main trajectory, held offload gives\n %s, searching everything\n %s", o.pick, o.pickFree)
		}
		if o.differed {
			differed++
		}
		return nil
	})
	if differed == 0 {
		t.Error("the incumbent never changed what an offload search returned: nothing above was tested")
	}
	t.Logf("the held compressed-trajectory offload returned a different strategy, rejected either way, in %d cases", differed)
}

// Algorithm 2 equals exhaustive enumeration of the prod(|G_i|+1)
// group-prefix space and reports that space: the diff harness's
// offload-exact check, with its one reference, on the 100 cases after
// TestHarnessSmoke's.
func TestOffloadMatchesExhaustiveEnumeration(t *testing.T) {
	t.Parallel()
	sum, err := diff.Run(diff.Config{Cases: 300, Seed: 301})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range sum.Failures {
		if f.Check == "offload-exact" {
			t.Error(f)
		}
	}
	if n := sum.Checks["offload-exact"]; n != 200 {
		t.Errorf("%d offload-exact assertions in %d cases, want 2 on each of 100", n, sum.Cases)
	}
}

// update rewrites the golden: go test ./internal/core -run TestSelectionsGolden -update
var update = flag.Bool("update", false, "rewrite testdata/selections.golden from live selections")

const selectionsGolden = "testdata/selections.golden"

// TestSelectionsGolden pins the default selection's strategy hash, counts
// and §5.1 Upper Bound per case, a degraded warm re-selection per 4th gen
// seed and each plan's report: a change meant to leave selection alone
// must leave it byte-identical. Under -short each line must still match.
func TestSelectionsGolden(t *testing.T) {
	t.Parallel()
	if *update && testing.Short() {
		t.Fatal("-update writes the full golden; run it without -short")
	}
	var got []string
	eachCase(t, func(r *caseResult) error {
		got = append(got, r.golden...)
		return nil
	})
	if *update && !t.Failed() {
		if err := os.WriteFile(selectionsGolden, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(selectionsGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	want := make(map[string]string)
	for _, line := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
		key, _, _ := strings.Cut(line, " ")
		want[key] = line
	}
	if !testing.Short() && len(got) != len(want) {
		t.Errorf("computed %d lines, golden has %d", len(got), len(want))
	}
	bad := 0
	for _, line := range got {
		if key, _, _ := strings.Cut(line, " "); want[key] != line {
			t.Errorf("selection drifted from the golden\n got: %s\nwant: %s", line, cmp.Or(want[key], "no "+key+" line"))
			if bad++; bad == 10 {
				t.Fatal("more than 10 lines differ")
			}
		}
	}
}
