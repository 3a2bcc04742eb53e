// Package core implements Espresso's compression decision algorithm
// (§4.4), the paper's primary contribution: Algorithm 1 selects a
// near-optimal GPU compression strategy by analyzing tensor interactions,
// and Algorithm 2 provably-optimally offloads compression from GPUs to
// CPUs. The package also provides the Upper Bound of §5.1 and a
// brute-force reference used to validate near-optimality on small
// problems.
package core

import (
	"fmt"
	"math"
	"sort"
	"time"

	"espresso/internal/baselines"
	"espresso/internal/cluster"
	"espresso/internal/cost"
	"espresso/internal/model"
	"espresso/internal/obs"
	"espresso/internal/obs/wtrace"
	"espresso/internal/strategy"
	"espresso/internal/timeline"
)

// Report describes one strategy selection.
type Report struct {
	// SelectionTime is the total wall-clock time of Select; Alg1Time
	// and OffloadTime split it (Tables 5 and 6).
	SelectionTime time.Duration
	Alg1Time      time.Duration
	OffloadTime   time.Duration

	// Evals counts candidate strategies judged: run on the timeline to
	// the end, run until the timeline proved them not below the incumbent
	// (cut), dismissed unrun because timeline.Engine.LowerBound already
	// reached the incumbent (bounded), or known unchanged since their last
	// run. events is the event-loop completions all of it simulated.
	Evals                   int
	cut, bounded, unchanged int
	events                  int
	// Candidates is |C_gpu|, the per-tensor GPU option set size.
	Candidates int
	// OffloadSearch is the size of Algorithm 2's search space,
	// prod(|G_i|+1).
	OffloadSearch int
	// OffloadTensors is |T_gpu|, the tensors eligible for offloading.
	OffloadTensors int

	// Compressed and Offloaded count tensors compressed at all and
	// tensors whose compression moved to CPUs.
	Compressed int
	Offloaded  int
	// Ruled counts tensors ruled out by bubble analysis (Property #1).
	Ruled int

	// Iter is the predicted iteration time F(S) of the selection.
	Iter time.Duration

	// Decisions is the per-tensor decision log, populated only when the
	// selector's Explain flag is set: for every tensor, each candidate's
	// predicted iteration time against the final strategy, the winner,
	// and the margin over the runner-up.
	Decisions []TensorDecision

	// ExplainTruncated reports that the Explain re-probe pass hit the
	// selector's ProbeDeadline: Decisions covers only the tensors probed
	// before the deadline.
	ExplainTruncated bool
}

// Selector selects compression strategies for one (model, cluster, GC)
// configuration. A Selector's methods must not be called concurrently,
// but with Parallelism > 1 each call internally fans its independent
// F(S) evaluations out over a pool of per-worker timeline engines.
type Selector struct {
	M    *model.Model
	C    *cluster.Cluster
	Cost *cost.Models

	// SkipBubbleAnalysis disables Property #1 (ruling out tensors
	// communicated before bubbles); ablation only.
	SkipBubbleAnalysis bool
	// NaiveOrder disables Property #2 (size-then-position ordering) and
	// sweeps tensors in backward index order instead; ablation only.
	NaiveOrder bool

	// Parallelism is the worker count for independent F(S) evaluations:
	// seed evaluations, the per-tensor candidate probes of Algorithm 1's
	// sweep, and brute-force validation shards. Values <= 1 select the
	// sequential search. The result is bit-identical at every setting —
	// ties are broken by candidate index, exactly as the sequential
	// sweep breaks them.
	Parallelism int

	// Obs, when non-nil, receives the search statistics of each Select
	// call (candidates examined, evaluations, pruning, offload space) as
	// search.* counters and gauges.
	Obs *obs.Metrics

	// Explain enables the decision log: after selection, every tensor's
	// candidates are re-probed against the final strategy and the
	// results land in Report.Decisions. The extra probes roughly double
	// a Select call's evaluation count, so it is opt-in.
	Explain bool

	// ProbeDeadline bounds the wall-clock time of the Explain re-probe
	// pass (zero = unbounded). When re-selection runs inside a degraded
	// iteration's budget, this keeps the decision log from running
	// unbounded: tensors probed before the deadline keep their
	// decisions, the rest are dropped and Report.ExplainTruncated is
	// set.
	ProbeDeadline time.Duration

	// Trace, when non-nil, receives request-scoped wall-clock spans for
	// every pipeline phase of the next Select/SelectFrom call: seed
	// evaluation, each greedy sweep pass with per-tensor probe
	// aggregates, the offload search, the compressed-candidates
	// trajectory, and the finalize/explain pass, with per-worker span
	// windows when Parallelism > 1. A nil Trace (the default) costs one
	// nil check per phase — the probe inner loop stays allocation-free.
	Trace *wtrace.Req

	eng        *timeline.Engine
	pool       []*timeline.Engine // lazily grown worker engines; pool[0] == eng
	candidates []strategy.Option
	devices    []cost.Device

	// dedupBySize caches, per distinct tensor size, the candidates with
	// pairwise-distinct job chains: options inducing identical chains
	// have identical F(S) effects, so evaluating one representative is
	// sound and cuts the sweep cost roughly in half.
	dedupBySize map[int][]strategy.Option

	// lastRemoved records, per tensor index, whether the most recent
	// sweep ruled the tensor out by bubble analysis (Property #1); the
	// explain pass reports them.
	lastRemoved []bool

	// sigScratch and offScratch back candidatesFor's signature
	// comparisons, reused across tensor sizes within a selection.
	sigScratch []timeline.ChainSig
	offScratch []int

	// bubbleRes and bubbleScratch are the reusable op log and tensor
	// list of removeBeforeBubbles, so the per-improvement bubble pass
	// allocates nothing in steady state.
	bubbleRes     timeline.Result
	bubbleScratch []int

	// wwin is the reusable per-worker window scratch of eachTraced, so
	// traced parallel fan-outs allocate nothing per probe position.
	wwin []workerWindow

	// variants is onDevice's cache, per device by Steps array.
	variants [2]map[*strategy.Step]variant

	// runAll is the differential tests' hook: judge nothing by bound or
	// stamp, run every candidate on the timeline from t=0 to the end.
	runAll bool
}

// unbounded is both the incumbent that dismisses nothing (no bound
// reaches it) and the iteration time recorded for a candidate dismissed
// by its lower bound; cut is recorded for one whose run stopped at the
// verdict. No incumbent exceeds either.
const (
	unbounded = timeline.NoLimit
	cut       = unbounded - 1
)

// judge asks whether eng's loaded configuration runs below limit: it
// returns the timeline result and its iteration time if so or if the
// timeline ran to the end anyway, unbounded if the closed-form lower
// bound already reaches limit, cut if the run was stopped on proving the
// same. idx is the tensor the caller varies from call to call (the
// engine resumes from its gradient-ready instant, see
// timeline.Engine.Probe), or -1. Every candidate the Selector holds
// against an incumbent comes through here.
func (sel *Selector) judge(eng *timeline.Engine, idx int, limit time.Duration) (*timeline.Result, time.Duration, error) {
	if sel.runAll {
		r, err := eng.Run()
		if err != nil {
			return nil, 0, err
		}
		return r, r.Iter, nil
	}
	if eng.LowerBound() >= limit {
		return nil, unbounded, nil
	}
	r, stopped, err := eng.Probe(idx, limit)
	if err != nil {
		return nil, 0, err
	}
	if stopped {
		return nil, cut, nil
	}
	return r, r.Iter, nil
}

// tally counts how the candidate that judge gave iter was judged and
// reports whether iter is an iteration time.
func (rep *Report) tally(iter time.Duration) bool {
	switch iter {
	case unbounded:
		rep.bounded++
	case cut:
		rep.cut++
	default:
		return true
	}
	return false
}

// variant pairs a device placement with the option it was made from,
// which keeps the Steps array the key points at alive, its address unique.
type variant struct{ from, to strategy.Option }

// onDevice is o.WithDevice(dev), returning one Option value per (o, dev)
// for the selector's lifetime: the engine memoizes chains by the Steps
// array's identity, so a fresh copy per call re-derives its chain.
func (sel *Selector) onDevice(o strategy.Option, dev cost.Device) strategy.Option {
	if !o.Compressed() || o.AllOn(dev) {
		return o
	}
	v, ok := sel.variants[dev][&o.Steps[0]]
	if !ok {
		if sel.variants[dev] == nil {
			sel.variants[dev] = make(map[*strategy.Step]variant)
		}
		v = variant{o, o.WithDevice(dev)}
		sel.variants[dev][&o.Steps[0]] = v
	}
	return v.to
}

// NewSelector builds a selector with the full GPU candidate set C_gpu.
func NewSelector(m *model.Model, c *cluster.Cluster, cm *cost.Models) *Selector {
	eng := timeline.New(m, c, cm)
	eng.RecordOps = false
	return &Selector{
		M: m, C: c, Cost: cm,
		eng:        eng,
		candidates: strategy.EnumerateGPU(c),
		devices:    []cost.Device{cost.GPU, cost.CPU},
	}
}

// SetCandidates restricts the per-tensor option set — the Dimension 3/4
// cripples of §5.3 and the brute-force validation use this.
func (sel *Selector) SetCandidates(opts []strategy.Option) {
	sel.candidates = opts
	sel.dedupBySize = nil
}

// SetDevices restricts the compute resources considered for compression
// (the Dimension 2 cripple of §5.3). With only cost.CPU, the candidate
// set is rewritten to CPU devices; with only cost.GPU, CPU offloading and
// CPU seeds are skipped.
func (sel *Selector) SetDevices(devs []cost.Device) {
	sel.devices = devs
	if len(devs) == 1 && devs[0] == cost.CPU {
		cands := make([]strategy.Option, len(sel.candidates))
		for i, o := range sel.candidates {
			if o.Compressed() {
				o = o.WithDevice(cost.CPU)
			}
			cands[i] = o
		}
		sel.candidates = cands
		sel.dedupBySize = nil
	}
}

func (sel *Selector) allows(dev cost.Device) bool {
	for _, d := range sel.devices {
		if d == dev {
			return true
		}
	}
	return false
}

// allowsCPU reports whether CPU offloading applies: it moves compression
// from GPUs to CPUs, so both device types must be allowed.
func (sel *Selector) allowsCPU() bool {
	return sel.allows(cost.CPU) && sel.allows(cost.GPU)
}

// Select runs the full pipeline: Algorithm 1 then CPU offloading.
func (sel *Selector) Select() (*strategy.Strategy, *Report, error) {
	return sel.selectFrom(nil)
}

// SelectFrom is Select warm-started with a prior strategy: the sweep's
// seed is the better of prior and the standard seed family (prior's F(S)
// is the incumbent the family is judged against, so a good prior bounds
// most of it away), and under the selector's cost models the result is
// never worse than prior. The
// degradation controller relies on this when re-selecting on a degraded
// topology — switching away from the incumbent only ever helps.
func (sel *Selector) SelectFrom(prior *strategy.Strategy) (*strategy.Strategy, *Report, error) {
	if prior == nil {
		return nil, nil, fmt.Errorf("core: SelectFrom with nil prior (use Select)")
	}
	if len(prior.PerTensor) != len(sel.M.Tensors) {
		return nil, nil, fmt.Errorf("core: prior strategy covers %d tensors, model has %d",
			len(prior.PerTensor), len(sel.M.Tensors))
	}
	return sel.selectFrom(prior)
}

func (sel *Selector) selectFrom(prior *strategy.Strategy) (*strategy.Strategy, *Report, error) {
	start, startEvents := time.Now(), sel.simulated()
	rep := &Report{Candidates: len(sel.candidates)}
	tr := sel.Trace

	// The top-level spans below ("seed", "sweep", "offload", "alt",
	// "finalize") are contiguous: each begins where the previous ended,
	// so their durations tile the request and sum to the end-to-end
	// selection latency up to span bookkeeping — the property the
	// flight recorder's per-phase breakdown relies on.
	spSeed := tr.Begin(wtrace.NoParent, "seed")
	seedEvals := rep.Evals
	seed, altFrom, err := sel.seedPass(prior, true, rep, spSeed)
	if err != nil {
		return nil, nil, err
	}
	if altFrom != nil {
		// sweepFrom rewrites its seed in place, and both can be one seed.
		altFrom = altFrom.Clone()
	}
	tr.EndEvals(spSeed, int64(rep.Evals-seedEvals))

	spSweep := tr.Begin(wtrace.NoParent, "sweep")
	sweepEvals := rep.Evals
	s, err := sel.sweepFrom(seed, false, rep, spSweep)
	if err != nil {
		return nil, nil, err
	}
	tr.EndEvals(spSweep, int64(rep.Evals-sweepEvals))
	rep.Alg1Time = time.Since(start)

	offStart := time.Now()
	spOff := tr.Begin(wtrace.NoParent, "offload")
	offEvals := rep.Evals
	if sel.allowsCPU() {
		s, err = sel.offloadCPU(s, unbounded, rep, spOff)
		if err != nil {
			return nil, nil, err
		}
	}
	tr.EndEvals(spOff, int64(rep.Evals-offEvals))
	rep.OffloadTime = time.Since(offStart)

	// The greedy sweep is monotone but path-dependent: seeded
	// differently, it can converge to a different local optimum. Run the
	// compressed-candidates trajectory as well — deterministically the
	// same search SelectAllCompressed performs, from the seed the seed
	// pass already picked for it — and keep the better endpoint, so
	// Select is never worse than the "All compression" cripple (§5.3) by
	// construction, not just empirically. It wins only below F(s), so its
	// offload search is held to that. The extra sweep's statistics stay
	// out of the report except for its evaluation count; Offloaded is
	// recomputed from the winner below. rep.Ruled and the explain pass's
	// ruled markings describe the primary trajectory, so its bubble set
	// is restored afterwards.
	spAlt := tr.Begin(wtrace.NoParent, "alt")
	altEvals := rep.Evals
	if len(sel.compressedOptions()) > 0 {
		sIter, err := sel.iter(s, rep)
		if err != nil {
			return nil, nil, err
		}
		primaryRemoved := sel.lastRemoved
		altRep := &Report{}
		alt, err := sel.compressedSearch(altFrom, sIter, altRep, spAlt)
		if err != nil {
			return nil, nil, err
		}
		sel.lastRemoved = primaryRemoved
		rep.Evals += altRep.Evals
		rep.cut += altRep.cut
		rep.bounded += altRep.bounded
		rep.unchanged += altRep.unchanged
		altIter, err := sel.iter(alt, rep)
		if err != nil {
			return nil, nil, err
		}
		if altIter < sIter {
			s = alt
		}
	}
	tr.EndEvals(spAlt, int64(rep.Evals-altEvals))

	spFin := tr.Begin(wtrace.NoParent, "finalize")
	finEvals := rep.Evals
	rep.Offloaded = 0
	for _, o := range s.PerTensor {
		if o.AllOn(cost.CPU) {
			rep.Offloaded++
		}
	}

	rep.Compressed = s.CompressedCount()
	iter, err := sel.iter(s, rep)
	if err != nil {
		return nil, nil, err
	}
	rep.Iter = iter
	if err := sel.explainDecisions(s, rep, spFin); err != nil {
		return nil, nil, err
	}
	tr.EndEvals(spFin, int64(rep.Evals-finEvals))
	// SelectionTime is stamped last so the wall clock covers every
	// evaluation counted in rep.Evals — including this final one — and
	// Alg1Time + OffloadTime <= SelectionTime always holds.
	rep.SelectionTime = time.Since(start)
	rep.events = sel.simulated() - startEvents
	sel.publish(rep)
	return s, rep, nil
}

// simulated is the event count of every engine the selector runs on.
func (sel *Selector) simulated() int {
	n := sel.eng.Events()
	for _, eng := range sel.pool {
		if eng != sel.eng {
			n += eng.Events()
		}
	}
	return n
}

// publish exports a selection report into the attached metrics registry.
// Counters accumulate across Select calls (a sweep over many configs sums
// naturally); point-in-time values land in gauges.
func (sel *Selector) publish(rep *Report) {
	mx := sel.Obs
	if mx == nil {
		return
	}
	mx.Counter("search.selections").Inc()
	mx.Counter("search.evals").Add(int64(rep.Evals))
	mx.Counter("search.evals_run").Add(int64(rep.Evals - rep.cut - rep.bounded - rep.unchanged))
	mx.Counter("search.evals_cut").Add(int64(rep.cut))
	mx.Counter("search.evals_bounded").Add(int64(rep.bounded))
	mx.Counter("search.evals_unchanged").Add(int64(rep.unchanged))
	mx.Counter("search.events").Add(int64(rep.events))
	mx.Counter("search.ruled_out").Add(int64(rep.Ruled))
	mx.Gauge("search.candidates").Set(float64(rep.Candidates))
	mx.Gauge("search.offload_space").Set(float64(rep.OffloadSearch))
	mx.Gauge("search.offload_tensors").Set(float64(rep.OffloadTensors))
	mx.Gauge("search.compressed").Set(float64(rep.Compressed))
	mx.Gauge("search.offloaded").Set(float64(rep.Offloaded))
	mx.Gauge("search.selection_us").Set(float64(rep.SelectionTime.Microseconds()))
	mx.Gauge("search.alg1_us").Set(float64(rep.Alg1Time.Microseconds()))
	mx.Gauge("search.offload_us").Set(float64(rep.OffloadTime.Microseconds()))
	mx.Gauge("search.iter_us").Set(float64(rep.Iter.Microseconds()))
}

func (sel *Selector) iter(s *strategy.Strategy, rep *Report) (time.Duration, error) {
	if err := sel.eng.Prepare(s); err != nil {
		return 0, err
	}
	r, err := sel.eng.Run()
	if err != nil {
		return 0, err
	}
	if rep != nil {
		rep.Evals++
	}
	return r.Iter, nil
}

// candidatesFor returns the candidate options for tensor idx with
// duplicate-chain options removed. Chains depend only on tensor size, so
// the result is cached per size.
func (sel *Selector) candidatesFor(idx int) ([]strategy.Option, error) {
	size := sel.M.Tensors[idx].Elems
	if cached, ok := sel.dedupBySize[size]; ok {
		return cached, nil
	}
	if sel.dedupBySize == nil {
		sel.dedupBySize = make(map[int][]strategy.Option)
	}
	// Structural dedup: accepted signatures live back to back in one flat
	// buffer (offs[j]:offs[j+1] is the j-th accepted chain), and each
	// candidate's signature is appended, compared against all accepted
	// ones, and truncated away again if it duplicates. First occurrence
	// wins, exactly as a string-keyed map would give.
	var (
		sigs = sel.sigScratch[:0]
		offs = append(sel.offScratch[:0], 0)
		out  []strategy.Option
	)
	for _, cand := range sel.candidates {
		start := len(sigs)
		var err error
		sigs, err = sel.eng.AppendChainSig(idx, cand, sigs)
		if err != nil {
			return nil, err
		}
		cur := sigs[start:]
		dup := false
		for j := 0; j+1 < len(offs) && !dup; j++ {
			dup = sigsEqual(sigs[offs[j]:offs[j+1]], cur)
		}
		if dup {
			sigs = sigs[:start]
		} else {
			offs = append(offs, len(sigs))
			out = append(out, cand)
		}
	}
	if sel.Obs != nil {
		sel.Obs.Counter("search.candidates_pruned").Add(int64(len(sel.candidates) - len(out)))
	}
	sel.sigScratch, sel.offScratch = sigs, offs
	sel.dedupBySize[size] = out
	return out, nil
}

// sigsEqual reports whether two chain signatures are element-wise equal.
func sigsEqual(a, b []timeline.ChainSig) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// order returns tensor indices sorted for Algorithm 1, lines 2-3:
// descending size, and within a size group ascending distance to the
// output layer (Property #2 — the tensor computed last in backward
// propagation has distance zero and goes first).
func (sel *Selector) order() []int {
	idxs := make([]int, len(sel.M.Tensors))
	for i := range idxs {
		idxs[i] = i
	}
	if sel.NaiveOrder {
		return idxs
	}
	sort.SliceStable(idxs, func(a, b int) bool {
		ta, tb := sel.M.Tensors[idxs[a]], sel.M.Tensors[idxs[b]]
		if ta.Elems != tb.Elems {
			return ta.Elems > tb.Elems
		}
		return sel.M.DistanceToOutput(idxs[a]) < sel.M.DistanceToOutput(idxs[b])
	})
	return idxs
}

// removeBeforeBubbles implements Remove() of Algorithm 1 (Property #1):
// derive the communication timeline under the current strategy and rule
// out the uncompressed tensors communicated before bubbles.
func (sel *Selector) removeBeforeBubbles(s *strategy.Strategy, removed []bool, rep *Report) error {
	if sel.SkipBubbleAnalysis {
		return sel.eng.Prepare(s)
	}
	sel.eng.RecordOps = true
	defer func() { sel.eng.RecordOps = false }()
	if err := sel.eng.Prepare(s); err != nil {
		return err
	}
	if err := sel.eng.RunInto(&sel.bubbleRes); err != nil {
		return err
	}
	rep.Evals++
	sel.bubbleScratch = sel.bubbleRes.AppendBubbleTensors(sel.bubbleRes.BottleneckComm(), sel.bubbleScratch[:0])
	for _, t := range sel.bubbleScratch {
		if !s.PerTensor[t].Compressed() && !removed[t] {
			removed[t] = true
			rep.Ruled++
		}
	}
	return nil
}

// ruled reports whether the most recent sweep's bubble analysis ruled out
// tensor idx; safe to call before any sweep has run.
func (sel *Selector) ruled(idx int) bool {
	return idx < len(sel.lastRemoved) && sel.lastRemoved[idx]
}

// maxSweeps bounds Algorithm 1's refinement. The paper describes a single
// greedy sweep; a per-tensor decision made early in the sweep can look
// different once the rest of the strategy has taken shape, so we re-sweep
// until the strategy is a fixed point (two to three passes in practice).
// Each extra pass only ever improves F(S).
const maxSweeps = 4

// Algorithm1 is the paper's Algorithm 1: greedy per-tensor GPU
// compression decisions driven by the overheads visible in the derived
// timeline, in size-then-position order (Property #2), with bubble-based
// elimination (Property #1), judged by the full-timeline iteration time
// rather than wall-clock operation times (Property #3).
//
// Because the greedy sweep is monotone (every accepted change strictly
// reduces F(S)), it is seeded with the best of a set of cheap starting
// strategies — FP32, every uniform single-option strategy, and the
// myopic wall-clock-selective strategy — which makes the result at least
// as good as every one of them, including the baselines' policies, which
// all live inside Espresso's search space.
func (sel *Selector) Algorithm1(rep *Report) (*strategy.Strategy, error) {
	if rep == nil {
		rep = &Report{}
	}
	seed, err := sel.bestSeed(nil, rep, wtrace.NoParent)
	if err != nil {
		return nil, err
	}
	return sel.sweepFrom(seed, false, rep, wtrace.NoParent)
}

// bestSeed evaluates the candidate starting strategies and returns the
// fastest (see seedPass).
func (sel *Selector) bestSeed(prior *strategy.Strategy, rep *Report, parent int) (*strategy.Strategy, error) {
	seed, _, err := sel.seedPass(prior, false, rep, parent)
	return seed, err
}

// seedPass evaluates the candidate starting strategies and returns the
// fastest. The seed family is built from baselines.Selective and spans
// every baseline policy: FP32, every uniform single-option strategy on
// both devices, for every option its τ-selective strategy, and the myopic
// one — HiPress, HiTopKComm, and BytePS-Compress are all members, so the
// monotone sweep's result dominates them by construction. A non-nil prior
// (SelectFrom) is evaluated first: ties go to the lowest index, so the
// incumbent wins unless a seed is strictly better. A selective or myopic
// seed that gives every tensor one option equals the uniform seed of that
// option, which precedes it, and is not judged.
//
// With withAlt it also returns the compressed trajectory's seed: the
// lowest-index minimal uniform compressed seed, the one compressedSearch
// would pick from the same strategies in the same order. The runAll
// reference judges every seed and leaves that family to compressedSearch.
func (sel *Selector) seedPass(prior *strategy.Strategy, withAlt bool, rep *Report, parent int) (seed, alt *strategy.Strategy, err error) {
	opts := sel.compressedOptions()
	plain := strategy.NoCompression(sel.C)
	selective, myopic, err := baselines.Selective(sel.eng, plain, opts)
	if err != nil {
		return nil, nil, err
	}

	n := len(sel.M.Tensors)
	seeds := make([]*strategy.Strategy, 0, 3+2*len(opts))
	roles := make([]seedRole, 0, cap(seeds))
	add := func(s *strategy.Strategy, r seedRole) {
		seeds, roles = append(seeds, s), append(roles, r)
	}
	derived := func(s *strategy.Strategy) seedRole {
		for _, o := range s.PerTensor {
			if !o.Equal(s.PerTensor[0]) {
				return mainSeed
			}
		}
		return dupSeed
	}
	if prior != nil {
		add(prior.Clone(), mainSeed)
		// Comparing prior with the family's winner judges that winner a
		// second time; its F(S) is known.
		rep.Evals++
		rep.unchanged++
	}
	uniform := mainSeed
	if withAlt {
		uniform = altSeed
	}
	add(strategy.Uniform(n, plain), mainSeed)
	for j, o := range opts {
		add(strategy.Uniform(n, o), uniform)
		add(selective[j], derived(selective[j]))
	}
	add(myopic, derived(myopic))
	if sel.runAll {
		roles = nil
	}
	best, altBest, err := sel.judgeSeeds(seeds, roles, rep, parent)
	if err != nil || altBest < 0 {
		return seeds[best], nil, err
	}
	return seeds[best], seeds[altBest], nil
}

// compressedOptions lists every compressed candidate option on every
// device, in candidate then device order: the uniform strategies of these
// are the compressed trajectory's seeds.
func (sel *Selector) compressedOptions() []strategy.Option {
	opts := make([]strategy.Option, 0, len(sel.candidates)*len(sel.devices))
	for _, shape := range sel.candidates {
		if !shape.Compressed() {
			continue
		}
		for _, dev := range sel.devices {
			opts = append(opts, sel.onDevice(shape, dev))
		}
	}
	return opts
}

// compressedSearch runs the selection pipeline with the candidate set
// restricted to compressed options: sweep from the best uniform
// compressed seed, then CPU offloading, held to find only what beats
// ceiling (see offloadCPU). It returns a nil strategy (and no error) when
// the candidate set has no compressed option. Both SelectAllCompressed
// and Select's second trajectory run exactly this search, which is what
// makes Select structurally never worse than the "All compression"
// cripple. A non-nil seed is that best uniform seed, already judged by
// seedPass: its family is counted as unchanged.
func (sel *Selector) compressedSearch(seed *strategy.Strategy, ceiling time.Duration, rep *Report, parent int) (*strategy.Strategy, error) {
	opts := sel.compressedOptions()
	if len(opts) == 0 {
		return nil, nil
	}
	if seed != nil {
		rep.Evals += len(opts)
		rep.unchanged += len(opts)
	} else {
		seeds := make([]*strategy.Strategy, len(opts))
		for i, o := range opts {
			seeds[i] = strategy.Uniform(len(sel.M.Tensors), o)
		}
		var err error
		if seed, err = sel.bestOf(seeds, rep, parent); err != nil {
			return nil, err
		}
	}
	s, err := sel.sweepFrom(seed, true, rep, parent)
	if err != nil {
		return nil, err
	}
	if sel.allowsCPU() {
		if s, err = sel.offloadCPU(s, ceiling, rep, parent); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// SelectAllCompressed is the "All compression" cripple of §5.3: Dimension
// 1 is fixed to "compress" for every tensor, and the rest of the pipeline
// (option choice, device choice, offloading) runs as usual.
func (sel *Selector) SelectAllCompressed() (*strategy.Strategy, *Report, error) {
	startEvents := sel.simulated()
	rep := &Report{}
	s, err := sel.compressedSearch(nil, unbounded, rep, wtrace.NoParent)
	if err != nil {
		return nil, nil, err
	}
	if s == nil {
		return nil, nil, fmt.Errorf("core: SelectAllCompressed needs at least one compressed candidate option (candidate set has %d options, none compressed)", len(sel.candidates))
	}
	rep.Compressed = s.CompressedCount()
	iter, err := sel.iter(s, rep)
	if err != nil {
		return nil, nil, err
	}
	rep.Iter = iter
	if err := sel.explainDecisions(s, rep, wtrace.NoParent); err != nil {
		return nil, nil, err
	}
	rep.events = sel.simulated() - startEvents
	sel.publish(rep)
	return s, rep, nil
}

// sweepFrom runs Algorithm 1's greedy sweeps starting from seed. All
// candidate probes for one position share the same fixed remainder of
// the strategy, so they are embarrassingly parallel; with
// Parallelism > 1 they fan out over the engine pool, and the winner is
// the lowest-index candidate achieving the minimal F(S) — exactly the
// candidate the sequential first-strict-improvement scan keeps, so the
// result is bit-identical to the sequential sweep.
//
// compressedOnly restricts the probes to compressed candidates. No
// compressed chain has the signature of an uncompressed one (only
// compression puts work on the GPU, host or staging link), so filtering
// candidatesFor's dedup is the dedup of the compressed subset.
func (sel *Selector) sweepFrom(s *strategy.Strategy, compressedOnly bool, rep *Report, parent int) (*strategy.Strategy, error) {
	tr := sel.Trace
	removed := make([]bool, len(sel.M.Tensors))
	if err := sel.removeBeforeBubbles(s, removed, rep); err != nil {
		return nil, err
	}
	if err := sel.eng.Prepare(s); err != nil {
		return nil, err
	}
	base, err := sel.eng.Run()
	if err != nil {
		return nil, err
	}
	rep.Evals++
	best := base.Iter

	// Load the current strategy into every worker engine; from here on
	// the pool is kept in lockstep by re-applying each position's
	// decision to every engine.
	engines := sel.engines()
	for _, eng := range engines[1:] {
		if err := eng.Prepare(s); err != nil {
			return nil, err
		}
	}

	var probes []strategy.Option
	var iters []time.Duration
	order := sel.order()
	// The loop re-sweeps until a fixed point, so positions are revisited
	// with nothing accepted since their last probe: same remainder, same
	// best, hence no candidate below best. changes counts accepted
	// changes (from 1) and stamp[idx] is its value when idx was last
	// decided (0: never).
	changes := 1
	stamp := make([]int, len(order))
	for sweep := 0; sweep < maxSweeps; sweep++ {
		changed := false
		spPass := tr.Begin(parent, "pass")
		passEvals := rep.Evals
		for _, idx := range order {
			if removed[idx] {
				continue
			}
			cur := s.PerTensor[idx]
			cands, err := sel.candidatesFor(idx)
			if err != nil {
				return nil, err
			}
			probes = probes[:0]
			for _, cand := range cands {
				if !cand.Equal(cur) && (!compressedOnly || cand.Compressed()) {
					probes = append(probes, cand)
				}
			}
			if cap(iters) < len(probes) {
				iters = make([]time.Duration, len(probes))
			}
			iters = iters[:len(probes)]
			// One aggregated span per tensor position covers all its
			// candidate probes; per-probe spans would dominate the very
			// loop they measure.
			tsp := wtrace.NoParent
			if tr != nil {
				tsp = tr.BeginTensor(spPass, "probe", idx)
			}
			if !sel.runAll && stamp[idx] == changes {
				rep.unchanged += len(probes)
				iters = iters[:0]
			} else if err := sel.probePosition(engines, idx, probes, iters, best, tsp); err != nil {
				return nil, err
			}
			rep.Evals += len(probes)
			if tr != nil {
				tr.EndEvals(tsp, int64(len(probes)))
			}

			bestOpt, improved := cur, false
			for i, it := range iters {
				if rep.tally(it) && it < best {
					best = it
					bestOpt = probes[i]
					improved = true
				}
			}
			s.PerTensor[idx] = bestOpt
			// Re-apply the decision everywhere: each engine is left with
			// whatever candidate it probed last.
			for _, eng := range engines {
				if err := eng.SetOption(idx, bestOpt); err != nil {
					return nil, err
				}
			}
			// New bubbles can appear once this tensor's communication
			// shrinks; rule out tensors newly before bubbles (line 8).
			// removeBeforeBubbles leaves the engine prepared with s.
			if improved {
				changed = true
				changes++
				if err := sel.removeBeforeBubbles(s, removed, rep); err != nil {
					return nil, err
				}
			}
			// Also right after an accepted change: every other candidate
			// here was just judged not below the new best.
			stamp[idx] = changes
		}
		tr.EndEvals(spPass, int64(rep.Evals-passEvals))
		if !changed {
			break
		}
	}
	sel.lastRemoved = removed
	return s, nil
}

// UpperBound computes the §5.1 Upper Bound: the throughput of
// compression-enabled DDL if compression were free and contention-less.
// It runs the same greedy selection on cm's free-compression copy.
func UpperBound(m *model.Model, c *cluster.Cluster, cm *cost.Models) (time.Duration, error) {
	sel := NewSelector(m, c, cm.WithFreeCompression())
	rep := &Report{}
	s, err := sel.Algorithm1(rep)
	if err != nil {
		return 0, err
	}
	return sel.iter(s, rep)
}

// Throughput converts an iteration time to the paper's metric: trained
// samples (images or tokens) per second across the whole cluster.
func Throughput(m *model.Model, c *cluster.Cluster, iter time.Duration) float64 {
	if iter <= 0 {
		return 0
	}
	return float64(m.Batch) * float64(c.TotalGPUs()) / iter.Seconds()
}

// ScalingFactor is T_n/(n*T): cluster throughput relative to perfect
// linear scaling of a single GPU (Table 1).
func ScalingFactor(m *model.Model, c *cluster.Cluster, iter time.Duration) float64 {
	single := float64(m.Batch) / m.IterTime().Seconds()
	return Throughput(m, c, iter) / (single * float64(c.TotalGPUs()))
}

// maxBruteForceStrategies caps the brute-force search space: past this
// the exhaustive odometer is hopeless.
const maxBruteForceStrategies = 1_000_000

// BruteForce exhaustively searches options^tensors and returns the
// optimal strategy and its iteration time: of all minimal-F(S)
// strategies, the first in odometer order (tensor 0 the fastest digit).
// Only feasible for tiny models; it exists to validate the greedy
// selection's near-optimality.
func BruteForce(m *model.Model, c *cluster.Cluster, cm *cost.Models, options []strategy.Option) (*strategy.Strategy, time.Duration, error) {
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
	eng := timeline.New(m, c, cm)
	eng.RecordOps = false
	s := strategy.Uniform(n, options[0])
	if err := eng.Prepare(s); err != nil {
		return nil, 0, err
	}
	assign := make([]int, n)
	bestIter := time.Duration(-1)
	var best *strategy.Strategy
	for {
		r, err := eng.Run()
		if err != nil {
			return nil, 0, err
		}
		if bestIter < 0 || r.Iter < bestIter {
			bestIter, best = r.Iter, s.Clone()
		}
		// Step the odometer; the digits that rolled over are re-applied.
		i := 0
		for ; i < n; i++ {
			if assign[i]++; assign[i] < len(options) {
				break
			}
			assign[i] = 0
		}
		if i == n {
			return best, bestIter, nil
		}
		for j := 0; j <= i; j++ {
			s.PerTensor[j] = options[assign[j]]
			if err := eng.SetOption(j, options[assign[j]]); err != nil {
				return nil, 0, err
			}
		}
	}
}

// SpaceLog10 reports log10 of how many strategies a brute-force search
// over the given option set spans: |options|^tensors. The option sets the
// enumerator produces already contain the uncompressed options as members
// (there is no separate "+1 for no compression" term), so this is the
// complete per-tensor decision count. The brute-force guard and
// BruteForceSpaceLog10 both count through here, so the space they report
// is the same quantity.
func SpaceLog10(options []strategy.Option, tensors int) float64 {
	if len(options) == 0 || tensors <= 0 {
		return 0
	}
	return float64(tensors) * math.Log10(float64(len(options)))
}

// BruteForceSpaceLog10 reports log10 of how many strategies a brute-force
// search over the full option set would evaluate (|C|^N, §4.4.1) — the
// raw count overflows even float64 for real models.
func BruteForceSpaceLog10(m *model.Model, c *cluster.Cluster) float64 {
	return SpaceLog10(strategy.Enumerate(c), len(m.Tensors))
}
