// Package timeline derives the training timeline of a DDL iteration under
// a compression strategy: the per-tensor backward computation,
// compression, staging, and communication operations, their placement on
// shared resources, and the resulting iteration time F(S) (§4.3–4.4).
//
// The engine simulates one representative GPU lane plus the shared
// per-machine resources: the GPU compute stream (backward kernels and GPU
// compression contend there), the host compression pool, the PCIe staging
// link, the intra-machine interconnect, and the machine NIC. Resources
// serve ready work in tensor-priority order without idling, the way
// WFBP frameworks with priority scheduling behave.
package timeline

import (
	"fmt"
	"math"
	"math/bits"
	"strings"
	"time"

	"espresso/internal/cluster"
	"espresso/internal/cost"
	"espresso/internal/model"
	"espresso/internal/sim"
	"espresso/internal/strategy"
)

// Resource identifies a shared resource lane in the timeline.
type Resource uint8

const (
	// ResGPU is the representative GPU's compute stream.
	ResGPU Resource = iota
	// ResCPU is the machine's host compression pool.
	ResCPU
	// ResStaging is the GPU<->host PCIe staging link.
	ResStaging
	// ResIntra is the intra-machine interconnect.
	ResIntra
	// ResInter is the machine's NIC.
	ResInter
	numResources
)

func (r Resource) String() string {
	switch r {
	case ResGPU:
		return "gpu"
	case ResCPU:
		return "cpu"
	case ResStaging:
		return "pcie"
	case ResIntra:
		return "intra"
	case ResInter:
		return "inter"
	default:
		return fmt.Sprintf("Resource(%d)", int(r))
	}
}

// Op is one executed operation in a derived timeline.
type Op struct {
	// Tensor is the tensor index in backward order; Step is the option
	// step index, or -1 for the backward computation itself.
	Tensor int
	Step   int
	Res    Resource
	Span   sim.Span
}

// Result is a derived timeline.
type Result struct {
	// Makespan is the time from the start of backward propagation until
	// the last tensor finishes synchronization.
	Makespan time.Duration
	// Iter is the iteration time: forward pass plus Makespan.
	Iter time.Duration
	// Ops lists every operation, ordered by completion.
	Ops []Op
	// ResBusy is the total service time per resource.
	ResBusy [numResources]time.Duration
}

// BottleneckComm returns the network resource with the most service time
// — the "communication timeline" of the paper's figures. Hierarchical
// jobs are usually NIC-bound; single-machine jobs are interconnect-bound.
func (r *Result) BottleneckComm() Resource {
	if r.ResBusy[ResInter] >= r.ResBusy[ResIntra] {
		return ResInter
	}
	return ResIntra
}

// TensorsBeforeBubbles implements the detection step of Property #1: a
// tensor is "communicated before a bubble" when its communication on the
// bottleneck network resource is followed by an idle gap because the next
// tensor was not ready — shrinking this tensor's communication would only
// widen the gap, never shift later communications earlier.
func (r *Result) TensorsBeforeBubbles() map[int]bool {
	out := make(map[int]bool)
	for _, t := range r.AppendBubbleTensors(r.BottleneckComm(), nil) {
		out[t] = true
	}
	return out
}

// AppendBubbleTensors appends to dst the tensors communicated before a
// bubble on res and returns the extended slice — TensorsBeforeBubbles
// without the map and intermediate op-slice allocations, for the greedy
// sweep's per-improvement bubble analysis. A tensor with several bubble-
// preceding communications appears once per bubble; callers dedupe.
func (r *Result) AppendBubbleTensors(res Resource, dst []int) []int {
	// Ops are ordered by completion, and a single-server resource
	// completes in start order, so streaming the resource's comm ops
	// pairs each one with its successor.
	have := false
	var prev Op
	for _, op := range r.Ops {
		if op.Res != res || op.Step < 0 {
			continue
		}
		// The gap is a bubble only if the successor was genuinely not
		// ready (rather than scheduled late).
		if have && op.Span.Start > prev.Span.End && op.Span.Ready > prev.Span.End {
			dst = append(dst, prev.Tensor)
		}
		prev, have = op, true
	}
	return dst
}

// Gantt renders a human-readable timeline (for cmd/espresso-sim and the
// didactic examples).
func (r *Result) Gantt() string {
	var out strings.Builder
	for _, op := range r.Ops {
		kind := "backward"
		if op.Step >= 0 {
			kind = fmt.Sprintf("step%-2d", op.Step)
		}
		fmt.Fprintf(&out, "%-6s T%-3d %s  [%8.3fms — %8.3fms]\n",
			op.Res, op.Tensor, kind,
			float64(op.Span.Start)/1e6, float64(op.Span.End)/1e6)
	}
	return out.String()
}

// Engine evaluates strategies for one (model, cluster, GC) configuration.
// It is not safe for concurrent use; create one engine per goroutine.
// A slowed GPU or free compression (the §5.1 Upper Bound) is a property
// of the cost models it is built on.
type Engine struct {
	M    *model.Model
	C    *cluster.Cluster
	Cost *cost.Models

	// RecordOps controls whether Evaluate keeps per-op spans. The
	// decision algorithm's inner loop disables it.
	RecordOps bool

	// forward, bw and bwTotal are the forward pass, each tensor's backward
	// kernel and all of them, as the cost models time them; fixed by New
	// and shared read-only with clones.
	forward, bwTotal time.Duration
	bw               []time.Duration

	// commSink, when non-nil, receives the communication steps of the
	// chain being built (see CommSteps). Transient; never cloned.
	commSink *[]CommStep

	// Reused scratch state; Engine is therefore not concurrency-safe.
	//
	// chains holds the per-tensor job pipelines. Every chain array is
	// immutable once built: it is owned by the chain memo and only ever
	// pointed at, never rewritten in place, so Clone can share the whole
	// table and clones can Run concurrently with the original.
	chains    [][]jobSpec
	queues    [numResources]jobQueue
	busyUntil [numResources]time.Duration
	cur       [numResources]leanJob

	// slots and memo cache derived chains by (option identity, size
	// class): chains depend on nothing else for a fixed engine
	// configuration, and the greedy sweep probes the same few dozen
	// candidate options across every tensor, so after warm-up SetOption
	// is a pointer-keyed map hit and a slice index instead of a full
	// cost-model derivation. slots numbers each option on first sight by
	// its Steps backing array, which assumes options are immutable once
	// built and never re-sliced — the contract the strategy package's
	// constructors already follow — and memo[slot*classes+class] is the
	// chain (nil until derived); class numbers each tensor's size among
	// the model's distinct sizes, fixed by New and shared with clones.
	// The memo is never shared: clones start with an empty one, so
	// concurrent engines never race on it.
	slots map[*strategy.Step]int32

	// arena is the chunk memoChain carves chain arrays out of; a full
	// chunk stays alive through the chains that point into it.
	arena []jobSpec

	// fork is the loop state Probe resumes from (see Probe); events counts
	// the job completions every run on this engine has simulated.
	fork   fork
	events int

	// busy and chainSum are LowerBound's inputs, kept by SetOption: the
	// loaded chains' service time per resource and per tensor.
	busy     [numResources]time.Duration
	chainSum []time.Duration

	// resScratch is the Result Run reuses when RecordOps is off — the
	// decision algorithm's inner loop runs tens of thousands of probes
	// per selection and must not allocate per probe.
	resScratch Result

	// Observe's span-name caches, keyed by content (tensor, step, and
	// the step's value), so they never need invalidation when the
	// observed strategy changes.
	bwNames   []string
	stepNames map[stepNameKey]string

	// The rest of the memo (see slots) sits after everything the event
	// loop reads, whose offsets decide which fields share a cache line:
	// declared ahead of that state, it made UGATIT's PCIe selection
	// measure ~10 % slower.
	memo    [][]jobSpec
	class   []int32
	classes int
}

// New builds an engine. The cost models must match the cluster.
func New(m *model.Model, c *cluster.Cluster, cm *cost.Models) *Engine {
	n := len(m.Tensors)
	e := &Engine{
		M: m, C: c, Cost: cm, RecordOps: true,
		forward: cm.ComputeTime(m.Forward),
		bw:      make([]time.Duration, n),
		// Pre-size the chain table from the model once: strategies always
		// cover exactly the model's tensors, so Prepare never has to grow
		// the outer array again.
		chains:   make([][]jobSpec, 0, n),
		chainSum: make([]time.Duration, n),
		class:    make([]int32, n),
	}
	classOf := make(map[int64]int32)
	for i, t := range m.Tensors {
		e.bw[i] = cm.ComputeTime(t.Compute)
		e.bwTotal += e.bw[i]
		c, ok := classOf[t.Bytes()]
		if !ok {
			c = int32(len(classOf))
			classOf[t.Bytes()] = c
		}
		e.class[i] = c
	}
	e.classes = len(classOf)
	return e
}

// Clone returns an independent engine for the same (model, cluster, GC)
// configuration, carrying RecordOps and the prepared per-tensor
// pipelines. Chain arrays are immutable (SetOption only ever repoints a
// tensor's entry at a memoized chain), so the clone shares them outright
// and neither engine can observe the other's writes. The model, cluster,
// cost models, compute times and size classes are shared read-only too,
// so a clone may Run concurrently with the original and with other
// clones — the engine-pool pattern the parallel strategy search uses for
// independent F(S) evaluations. The chain memo itself is not shared:
// each clone rebuilds its own, keeping engines race-free without locks.
func (e *Engine) Clone() *Engine {
	out := &Engine{
		M: e.M, C: e.C, Cost: e.Cost,
		RecordOps: e.RecordOps,
		forward:   e.forward, bwTotal: e.bwTotal, bw: e.bw,
		class: e.class, classes: e.classes,
		busy:     e.busy,
		chainSum: append([]time.Duration(nil), e.chainSum...),
	}
	n := len(e.M.Tensors)
	if len(e.chains) > 0 {
		out.chains = make([][]jobSpec, len(e.chains), n)
		copy(out.chains, e.chains)
	} else {
		out.chains = make([][]jobSpec, 0, n)
	}
	return out
}

// jobPrio packs a job's identity into one orderable word. The high bits
// carry the schedule priority — all work of tensor i precedes work of
// tensor j>i, and within a tensor the backward kernel (stepSlot 0)
// precedes option steps (stepSlot 1+s) — while the low byte carries the
// chain index (+1, so the backward kernel's -1 encodes as 0) purely for
// the completion path to recover. The chain index can only break ties
// between jobs with equal (tensor, stepSlot), which never share a queue
// (a step's jobs land on distinct resources), so heap order — and the
// simulated schedule — is exactly that of the unpacked priority.
func jobPrio(tensor, stepSlot, job int) int64 {
	return int64(tensor)<<24 | int64(stepSlot)<<8 | int64(job+1)
}

func jobTensor(p int64) int32 { return int32(p >> 24) }
func jobIndex(p int64) int    { return int(p&0xff) - 1 }

// jobStep recovers the option step index (-1 for the backward kernel).
func jobStep(p int64) int { return int(p>>8)&0xffff - 1 }

// jobSpec is one precomputed unit of work in a tensor's pipeline.
type jobSpec struct {
	res  Resource
	dur  time.Duration
	step int // option step index (several jobs may share a step)
}

// Evaluate derives the timeline of one iteration under s.
//
// The scheduler is a lean discrete-event loop specialized to this model:
// five single-server resources, each serving ready jobs in priority
// order without idling (work-conserving, non-preemptive). The loop
// allocates almost nothing, because the decision algorithm calls it tens
// of thousands of times per strategy selection.
func (e *Engine) Evaluate(s *strategy.Strategy) (*Result, error) {
	if err := e.Prepare(s); err != nil {
		return nil, err
	}
	return e.Run()
}

// Prepare loads a strategy, computing every tensor's pipeline. After
// Prepare, individual tensors can be re-assigned with SetOption and the
// loaded configuration evaluated with Run — the incremental pattern of
// GetBestOption (Algorithm 1), which swaps one tensor's option at a time.
func (e *Engine) Prepare(s *strategy.Strategy) error {
	if len(s.PerTensor) != len(e.M.Tensors) {
		return fmt.Errorf("timeline: strategy covers %d tensors, model has %d",
			len(s.PerTensor), len(e.M.Tensors))
	}
	// New and Clone size the chain table for the model. Loading starts
	// from nothing, and LowerBound's sums with it.
	e.chains = e.chains[:len(e.M.Tensors)]
	clear(e.chains)
	e.busy = [numResources]time.Duration{}
	e.fork.ok = false
	for i, opt := range s.PerTensor {
		if err := e.SetOption(i, opt); err != nil {
			return err
		}
	}
	return nil
}

// SetOption replaces tensor i's pipeline with opt. Prepare must have run.
// The first assignment of each (tensor size, option) pair derives the
// chain and memoizes it; every later assignment — the steady state of
// the greedy sweep, which swaps the same few candidate options across
// tensors tens of thousands of times — repoints the tensor's entry at
// the memoized array without deriving or copying anything. opt's Steps
// must not be mutated afterwards: chains are cached by the Steps
// array's identity, and the cached arrays are shared (immutably) with
// clones of this engine.
func (e *Engine) SetOption(i int, opt strategy.Option) error {
	chain, err := e.memoChain(i, opt)
	if err != nil {
		return err
	}
	e.load(i, chain)
	return nil
}

// load points tensor i at chain, keeping LowerBound's sums exact and
// dropping a fork taken under the old chain.
func (e *Engine) load(i int, chain []jobSpec) {
	if i < e.fork.idx {
		e.fork.ok = false
	}
	for _, j := range e.chains[i] {
		e.busy[j.res] -= j.dur
	}
	var sum time.Duration
	for _, j := range chain {
		e.busy[j.res] += j.dur
		sum += j.dur
	}
	e.chains[i], e.chainSum[i] = chain, sum
}

// LowerBound is a closed-form lower bound on Run().Iter for the loaded
// configuration, in O(tensors) with no event loop: no tensor finishes
// before the backward kernels up to its own have run in index order and
// its chain has run in sequence, and no single-server resource finishes
// before serving all its work. The Selector asks it before every probe
// and runs the timeline only when the bound is below its incumbent.
func (e *Engine) LowerBound() time.Duration {
	var prefix, bound time.Duration
	for i, sum := range e.chainSum[:len(e.chains)] {
		prefix += e.bw[i]
		bound = max(bound, prefix+sum)
	}
	bound = max(bound, e.busy[ResGPU]+prefix)
	for _, d := range e.busy[ResCPU:] {
		bound = max(bound, d)
	}
	return e.forward + bound
}

// Chain-arena chunk sizes, in jobSpecs (24 bytes each).
const (
	arenaFirst = 128
	arenaMax   = 2048
)

// memoChain returns the immutable memoized chain for (tensor i's size,
// opt), deriving and caching it on first use. AppendChainSig shares
// this cache, so the candidate-dedup pass that opens a sweep also warms
// the memo for the probe loop that follows.
func (e *Engine) memoChain(i int, opt strategy.Option) ([]jobSpec, error) {
	if len(opt.Steps) == 0 {
		return e.chainInto(i, opt, nil) // the empty option is an error
	}
	slot, ok := e.slots[&opt.Steps[0]]
	if !ok {
		if e.slots == nil {
			e.slots = make(map[*strategy.Step]int32)
		}
		slot = int32(len(e.slots))
		e.slots[&opt.Steps[0]] = slot
		e.memo = append(e.memo, make([][]jobSpec, e.classes)...)
	}
	entry := &e.memo[int(slot)*e.classes+int(e.class[i])]
	if *entry != nil {
		return *entry, nil
	}
	// A step expands to at most two jobs (CPU compression adds a staging
	// hop), so this much of the arena always holds the full chain. The
	// three-index slices keep an append from ever reaching a neighbour.
	need := 2 * len(opt.Steps)
	if cap(e.arena)-len(e.arena) < need {
		// Chunks double from arenaFirst to arenaMax specs: a six-tensor
		// case never pays for a ResNet's chunk.
		e.arena = make([]jobSpec, 0, max(need, min(2*cap(e.arena), arenaMax), arenaFirst))
	}
	at := len(e.arena)
	chain, err := e.chainInto(i, opt, e.arena[at:at:at+need])
	if err != nil {
		return nil, err
	}
	e.arena = e.arena[:at+len(chain)]
	chain = chain[:len(chain):len(chain)]
	// jobPrio packs the chain index into 8 bits and the step slot into 16;
	// stepSlot <= len(chain), so one guard covers both fields.
	if len(chain) > 0xfe {
		return nil, fmt.Errorf("timeline: tensor %d chain of %d jobs exceeds job-packing width", i, len(chain))
	}
	*entry = chain
	return chain, nil
}

// Run evaluates the currently loaded configuration.
//
// With RecordOps off — the decision loop's configuration — the returned
// Result is the engine's own reusable scratch: it is valid until the next
// Run/RunInto on this engine, which keeps the probe loop allocation-free.
// Callers that need the Result to outlive the next evaluation must copy
// it (or run with RecordOps on, which returns a fresh Result).
func (e *Engine) Run() (*Result, error) {
	if !e.RecordOps {
		if err := e.RunInto(&e.resScratch); err != nil {
			return nil, err
		}
		return &e.resScratch, nil
	}
	res := &Result{}
	// Pre-size the op log to its exact final length: one op per chain
	// job plus one backward kernel per tensor.
	ops := len(e.M.Tensors)
	for _, ch := range e.chains {
		ops += len(ch)
	}
	res.Ops = make([]Op, 0, ops)
	if err := e.RunInto(res); err != nil {
		return nil, err
	}
	return res, nil
}

// RunInto is Run evaluating into a caller-owned Result, reusing its Ops
// backing array — the pooled-scratch entry point for callers that
// evaluate in a loop (the bubble-analysis pass of the greedy sweep).
func (e *Engine) RunInto(res *Result) error {
	_, err := e.run(res, -1, NoLimit)
	return err
}

// NoLimit is the limit no iteration time reaches: a Probe given it never
// stops early.
const NoLimit = time.Duration(math.MaxInt64)

// idle is the completion time of a resource serving nothing.
const idle = time.Duration(math.MaxInt64)

// Probe is Run for a caller that re-assigns tensor idx (and possibly
// tensors above it) between calls and only needs to know the iteration
// time if it is below limit — the Selector's GetBestOption loop. It
// returns the engine's scratch Result like Run; two things make it
// cheaper.
//
// Fork: nothing scheduled before tensor idx's backward kernel completes
// can depend on the options of tensors >= idx (their chains are released
// by their own kernels, which the GPU runs in index order), so the first
// run copies the loop state at that instant and later runs resume from
// the copy for as long as SetOption touched only tensors >= idx. A run
// that resumes below idx takes a new fork at idx on its way. SetOption
// below the fork, Prepare, Clone and RecordOps fall back to a run from
// t=0.
//
// Stop: whenever resource r starts a job at time now, all the work r has
// not yet served is still ahead of it, so Iter >= forward + now +
// (load[r] - served[r]). The run ends at the first dispatch where that
// reaches limit and reports stopped; the Result is then unfinished and
// must not be read. A stopped run's true Iter is >= limit; a run that is
// not stopped is exactly Run. A resumed run re-applies the test to the
// dispatches it skipped, so (Iter, stopped) never depends on whether a
// fork was used.
//
// idx < 0 takes and uses no fork; limit NoLimit never stops.
func (e *Engine) Probe(idx int, limit time.Duration) (res *Result, stopped bool, err error) {
	if e.RecordOps {
		res, err = e.Run()
		return res, false, err
	}
	stopped, err = e.run(&e.resScratch, idx, limit)
	return &e.resScratch, stopped, err
}

// Events returns how many job completions the engine's runs have
// simulated since it was built: the unit of event-loop work, so a count
// where a wall-clock share would drift.
func (e *Engine) Events() int { return e.events }

// fork is the event loop's state at the instant tensor idx's backward
// kernel completes, before that completion is processed: every later
// event of the run follows from it and the chains of tensors >= idx.
type fork struct {
	ok  bool
	idx int

	jobs      []leanJob // the five ready heaps, back to back
	n         [numResources]int
	cur       [numResources]leanJob
	busyUntil [numResources]time.Duration
	served    [numResources]time.Duration // Result.ResBusy so far
	// gap is the stop test's left-hand side at each resource's latest
	// dispatch, for a resumed run to re-apply under its own load.
	gap    [numResources]time.Duration
	finish time.Duration
	done   int
	bw     int // the next backward kernel to start
}

// run is the event loop behind Run, RunInto and Probe (which documents
// idx and limit).
func (e *Engine) run(res *Result, idx int, limit time.Duration) (stopped bool, err error) {
	total := len(e.M.Tensors)
	f := &e.fork
	canFork := !e.RecordOps && idx >= 0
	resume := canFork && f.ok && f.idx <= idx

	res.Makespan = 0
	res.Iter = 0
	res.Ops = res.Ops[:0]

	var (
		finish time.Duration
		done   int
		// Backward kernels are all ready at t=0 and the GPU takes them in
		// index order, so they are not queued: bw is the next one, and it
		// competes with the GPU's ready heap on priority — GPU compression
		// of earlier tensors interleaves ahead of later kernels (Reason #1).
		bw  int
		gap [numResources]time.Duration
		// dirty marks the resources dispatch must look at: a resource's
		// (idle, queue-nonempty) state changes solely when it completes a
		// job or receives a push, and the event loop marks exactly those,
		// so every idle resource outside the mask is known to have an
		// empty queue. Ascending resource order matches a full scan.
		dirty uint32
	)
	if resume {
		off := 0
		for r := range e.queues {
			n := f.n[r]
			copy(e.queues[r].buf, f.jobs[off:off+n])
			e.queues[r].n = n
			off += n
		}
		e.cur, e.busyUntil = f.cur, f.busyUntil
		res.ResBusy, gap = f.served, f.gap
		finish, done, bw = f.finish, f.done, f.bw
	} else {
		res.ResBusy = [numResources]time.Duration{}
		for r := range e.queues {
			e.queues[r].n = 0
			e.busyUntil[r] = idle
			e.cur[r] = leanJob{}
			gap[r] = math.MinInt64
		}
		dirty = 1 << ResGPU
	}
	// takeAt is the job whose completion a new fork is taken at.
	takeAt := int64(-1)
	if canFork && !(resume && f.idx == idx) {
		takeAt = jobPrio(idx, 0, -1)
	}

	// slack[r] is what now - served[r] must reach at a dispatch on r for
	// forward + now + (load[r] - served[r]) to reach limit.
	slack := e.busy
	slack[ResGPU] += e.bwTotal
	for r := range slack {
		slack[r] = limit - e.forward - slack[r]
		stopped = stopped || gap[r] >= slack[r]
	}

	events := 0
	var now time.Duration
	for !stopped {
		for mask := dirty; mask != 0; {
			r := bits.TrailingZeros32(mask)
			mask &^= 1 << r
			if e.busyUntil[r] != idle {
				continue
			}
			var j leanJob
			if q := &e.queues[r]; r == int(ResGPU) && bw < total && (q.n == 0 || jobPrio(bw, 0, -1) < q.buf[0].prio) {
				j = leanJob{prio: jobPrio(bw, 0, -1), dur: e.bw[bw]}
				bw++
			} else if q.n > 0 {
				j = e.pop(Resource(r))
			} else {
				continue
			}
			j.start = now
			e.cur[r] = j
			e.busyUntil[r] = now + j.dur
			gap[r] = now - res.ResBusy[r]
			stopped = stopped || gap[r] >= slack[r]
		}
		if stopped {
			break
		}
		// Find the earliest completion and the resources finishing then.
		next, due := idle, uint32(0)
		for r, t := range e.busyUntil {
			if t < next {
				next, due = t, 1<<r
			} else if t == next {
				due |= 1 << r
			}
		}
		if next == idle {
			break
		}
		now = next
		if e.cur[ResGPU].prio == takeAt && e.busyUntil[ResGPU] == now {
			takeAt = -1
			f.ok, f.idx = true, idx
			f.jobs = f.jobs[:0]
			for r := range e.queues {
				f.n[r] = e.queues[r].n
				f.jobs = append(f.jobs, e.queues[r].buf[:e.queues[r].n]...)
			}
			f.cur, f.busyUntil = e.cur, e.busyUntil
			f.served, f.gap = res.ResBusy, gap
			f.finish, f.done, f.bw = finish, done, bw
		}
		// Complete everything finishing at this instant before
		// dispatching, so same-instant arrivals compete on priority.
		dirty = due
		for ; due != 0; due &= due - 1 {
			r := bits.TrailingZeros32(due)
			events++
			j := e.cur[r]
			e.busyUntil[r] = idle
			tensor := jobTensor(j.prio)
			if e.RecordOps {
				res.Ops = append(res.Ops, Op{
					Tensor: int(tensor), Step: jobStep(j.prio),
					Res:  Resource(r),
					Span: sim.Span{Ready: j.ready, Start: j.start, End: now},
				})
			}
			res.ResBusy[r] += j.dur
			chain := e.chains[tensor]
			nextJob := jobIndex(j.prio) + 1
			if nextJob >= len(chain) {
				done++
				if now > finish {
					finish = now
				}
				continue
			}
			spec := chain[nextJob]
			e.push(spec.res, leanJob{
				prio:  jobPrio(int(tensor), 1+spec.step, nextJob),
				ready: now, dur: spec.dur,
			})
			dirty |= 1 << uint(spec.res)
		}
	}
	e.events += events
	if stopped {
		return true, nil
	}
	if done != total {
		return false, fmt.Errorf("timeline: %d of %d tensors completed (pipeline deadlock)", done, total)
	}
	res.Makespan = finish
	res.Iter = e.forward + finish
	return false, nil
}

// leanJob is an in-flight or queued unit of work. Its identity lives
// packed inside prio (see jobPrio); keeping the struct at 32 bytes
// instead of 48 cuts the copy traffic of every heap sift and dispatch
// in the event loop.
type leanJob struct {
	prio  int64
	ready time.Duration
	start time.Duration
	dur   time.Duration
}

// jobQueue is a binary min-heap of ready jobs with an explicit length,
// so push/pop mutate elements and an int rather than re-storing the
// slice header into the Engine — a pointer store that would fire a GC
// write barrier on every heap operation of the event loop. The header
// is only written when the buffer grows, which pre-sizing amortizes to
// nothing.
type jobQueue struct {
	buf []leanJob
	n   int
}

// push adds a job to a resource's ready heap. The sift-up moves parents
// down into a hole instead of swapping, writing the new job once at its
// final slot. Priorities are unique within a queue (a tensor never has
// two jobs of the same step slot on one resource), so heap order — and
// therefore the simulated schedule — is deterministic.
func (e *Engine) push(r Resource, j leanJob) {
	q := &e.queues[r]
	if q.n == len(q.buf) {
		q.buf = append(q.buf, j)
	}
	b := q.buf
	i := q.n
	q.n++
	for i > 0 {
		parent := (i - 1) / 2
		if b[parent].prio <= j.prio {
			break
		}
		b[i] = b[parent]
		i = parent
	}
	b[i] = j
}

// pop removes the lowest-priority-value ready job.
func (e *Engine) pop(r Resource) leanJob {
	q := &e.queues[r]
	b := q.buf
	top := b[0]
	n := q.n - 1
	q.n = n
	j := b[n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		if rr := l + 1; rr < n && b[rr].prio < b[l].prio {
			l = rr
		}
		if b[l].prio >= j.prio {
			break
		}
		b[i] = b[l]
		i = l
	}
	b[i] = j
	return top
}

// IterTime is Evaluate without op recording, for the decision loop.
func (e *Engine) IterTime(s *strategy.Strategy) (time.Duration, error) {
	saved := e.RecordOps
	e.RecordOps = false
	r, err := e.Evaluate(s)
	e.RecordOps = saved
	if err != nil {
		return 0, err
	}
	return r.Iter, nil
}
