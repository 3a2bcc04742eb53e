package chaos

import (
	"fmt"
	"slices"
	"time"

	"espresso/internal/cluster"
	"espresso/internal/compress"
	"espresso/internal/cost"
	"espresso/internal/ddl"
	"espresso/internal/model"
	"espresso/internal/netsim"
	"espresso/internal/obs"
	"espresso/internal/obs/flight"
	"espresso/internal/obs/wtrace"
	"espresso/internal/splitmix"
	"espresso/internal/strategy"
	"espresso/internal/timeline"
)

// IterationError wraps a fault that aborted an iteration (deadline
// exceeded or delivery failure past max attempts).
type IterationError struct {
	Iteration int
	Err       error
}

func (e *IterationError) Error() string {
	return fmt.Sprintf("chaos: iteration %d: %v", e.Iteration, e.Err)
}

func (e *IterationError) Unwrap() error { return e.Err }

// Runner executes a strategy's training iterations against a faulted
// message-level network. Each iteration it evaluates the analytic
// timeline under the currently active device scales, replays the
// inter-machine communication phases on the netsim network (where link
// faults, loss, retransmission, and deadlines live), and feeds the
// observed makespan to the degradation monitor. When the monitor trips,
// it snapshots the degraded topology and re-runs strategy selection,
// adopting the result if it improves the predicted iteration time.
type Runner struct {
	M    *model.Model
	C    *cluster.Cluster
	Spec compress.Spec
	Plan *Plan

	// Strategy is the strategy in force; re-selection may replace it
	// mid-run.
	Strategy *strategy.Strategy

	// Parallelism, Explain, and ProbeDeadline configure the re-selection
	// search (see ReselectOptions).
	Parallelism   int
	Explain       bool
	ProbeDeadline time.Duration

	// Trace optionally receives the per-iteration spans and the network's
	// link spans (Chrome-trace export); nil is off.
	Trace *obs.Trace
	// Metrics optionally receives netsim counters on Observe.
	Metrics *obs.Metrics
	// Tracer wall-clock-traces re-selections; Flight captures each one as
	// an unconditional anomaly record (see ReselectOptions).
	Tracer *wtrace.Tracer
	Flight *flight.Recorder

	// Deterministic zeroes the report's wall-clock fields (re-selection
	// SelectionTime), so reruns at the same seed are byte-identical.
	Deterministic bool

	nw      *netsim.Network
	cm      *cost.Models
	monitor *Monitor

	// Elastic-membership state: curC is the cluster restricted to the
	// surviving machines, members is the full-rank membership vector,
	// netBase accumulates retired networks' fault statistics.
	curC       *cluster.Cluster
	members    []bool
	generation int
	failures   int
	netBase    netsim.FaultStats

	clock      time.Duration
	prevStats  netsim.FaultStats
	wireFaults int64
	prevWire   int64
	reselected bool
	// wireRNG draws the data-plane corruption, independent of the
	// network's loss stream.
	wireRNG splitmix.Rand
	report  *Report
}

// NewRunner builds a runner on membership generation 0: every machine
// present, on what topology builds for them. A fault naming a machine
// outside the cluster is an error.
func NewRunner(m *model.Model, c *cluster.Cluster, spec compress.Spec, s *strategy.Strategy, plan *Plan) (*Runner, error) {
	if s == nil {
		return nil, fmt.Errorf("chaos: nil strategy")
	}
	n := c.Machines
	for i := range plan.Faults {
		switch f := &plan.Faults[i]; f.Kind {
		case Straggler, Flap:
			if f.Src >= 0 && (f.Src >= n || f.Dst < 0 || f.Dst >= n) {
				return nil, fmt.Errorf("chaos: link %d->%d out of range for %d machines", f.Src, f.Dst, n)
			}
		case Leave, Join:
			if f.Rank >= n {
				return nil, fmt.Errorf("chaos: membership rank %d out of range for %d machines", f.Rank, n)
			}
		}
	}
	members := make([]bool, n)
	for i := range members {
		members[i] = true
	}
	r := &Runner{
		M: m, C: c, Spec: spec, Plan: plan, Strategy: s,
		// The plan's per-iteration deadline also bounds the Explain
		// re-probe during re-selection, so the decision log cannot run
		// unbounded on a topology slow enough to have tripped the monitor.
		ProbeDeadline: plan.Deadline.D(),
		monitor:       NewMonitor(plan.Monitor),
		members:       members,
		wireRNG:       splitmix.Rand(plan.Seed ^ 0xc0ffee),
		report:        &Report{Plan: plan},
	}
	var err error
	if r.nw, r.curC, r.cm, err = r.topology(0, ranksOf(members)); err != nil {
		return nil, err
	}
	return r, nil
}

// topology builds what membership generation gen runs on, for the
// machines ranks: a fresh network over them, its loss stream seeded with
// the plan seed (generation 0) or that seed's gen-th draw, armed with the
// plan's retry policy and its fault timeline lowered for ranks; and the
// cluster and cost models of len(ranks) machines. The timeline holds
// absolute values, so once the network idles to the present its links
// are in the state the plan prescribes.
func (r *Runner) topology(gen int, ranks []int) (*netsim.Network, *cluster.Cluster, *cost.Models, error) {
	nw, err := netsim.New(len(ranks), r.C.InterLatency, r.C.InterBandwidth)
	if err != nil {
		return nil, nil, nil, err
	}
	seed := r.Plan.Seed
	if gen > 0 {
		seed = splitmix.Nth(seed, uint64(gen))
	}
	nw.Seed(seed)
	nw.SetRecovery(r.Plan.Retry.Recovery())
	if err := nw.Program(r.Plan.transitionsFor(ranks, r.C.InterBandwidth)); err != nil {
		return nil, nil, nil, err
	}
	c, err := r.C.WithMachines(len(ranks))
	if err != nil {
		return nil, nil, nil, err
	}
	cm, err := cost.NewModels(c, r.Spec)
	if err != nil {
		return nil, nil, nil, err
	}
	return nw, c, cm, nil
}

// ActiveCluster is the cluster restricted to the current membership —
// the full cluster until a rank leaves. Data planes sized to the
// topology (espresso-sim's DDL executor) rebuild when it changes.
func (r *Runner) ActiveCluster() *cluster.Cluster { return r.curC }

// Report returns the accumulated run report (live; WriteJSON-able at
// any point). Fault statistics aggregate across every network
// generation the run has retired.
func (r *Runner) Report() *Report {
	r.report.Net = r.netBase.Add(r.nw.Stats())
	return r.report
}

// WireConfig builds the DDL data-plane fault injector for the plan's
// corrupt faults, or nil when the plan has none. The injector flips one
// byte of an encoded payload with the probability active at the
// runner's current virtual time; corrupt payloads are caught by the
// wire checksum and retransmitted by the executor.
func (r *Runner) WireConfig() *ddl.WireConfig {
	has := false
	for i := range r.Plan.Faults {
		if r.Plan.Faults[i].Kind == Corrupt {
			has = true
			break
		}
	}
	if !has {
		return nil
	}
	return &ddl.WireConfig{
		MaxAttempts: r.Plan.Retry.MaxAttempts,
		Fault: func(buf []byte) []byte {
			rate := r.Plan.CorruptRate(r.clock)
			if rate <= 0 || r.wireRNG.Float64() >= rate || len(buf) == 0 {
				return buf
			}
			r.wireFaults++
			buf[r.wireRNG.Intn(len(buf))] ^= 0x5a
			return buf
		},
	}
}

// engineAt returns the analytic engine for the device scales active at
// virtual time t: the base cost models when healthy, scaled clones when
// a slow-device fault is open.
func (r *Runner) engineAt(t time.Duration) (*timeline.Engine, error) {
	gpuS, cpuS := r.Plan.DeviceScalesAt(t)
	cm := r.cm
	if gpuS != 1 || cpuS != 1 {
		var err error
		if cm, err = cm.WithDeviceScale(gpuS, cpuS); err != nil {
			return nil, err
		}
	}
	eng := timeline.New(r.M, r.curC, cm)
	eng.RecordOps = false
	return eng, nil
}

// replay runs the strategy's inter-machine communication phases on the
// faulted network and returns the total elapsed virtual time. Flat-scope
// collectives span all N*k GPUs but share each machine's NIC, so they
// replay over the machine network with k times the bytes; intra-machine
// phases never touch the faulted fabric and stay analytic.
func (r *Runner) replay(eng *timeline.Engine) (time.Duration, error) {
	k := int64(r.curC.GPUsPerMachine)
	var total time.Duration
	for i := range r.Strategy.PerTensor {
		steps, err := eng.CommSteps(i, r.Strategy.PerTensor[i])
		if err != nil {
			return 0, err
		}
		for _, st := range steps {
			if st.Scope == strategy.Intra {
				continue
			}
			bytes := st.Bytes
			if st.Scope == strategy.Flat {
				bytes *= k
			}
			var d time.Duration
			switch st.Routine {
			case strategy.Allreduce:
				d, err = r.nw.RingAllreduce(bytes)
			case strategy.ReduceScatter:
				d, err = r.nw.RingReduceScatter(bytes)
			case strategy.Allgather, strategy.Gather:
				d, err = r.nw.RingAllgather(bytes)
			case strategy.Alltoall:
				d, err = r.nw.Alltoall(bytes)
			case strategy.Broadcast, strategy.Reduce:
				d, err = r.nw.TreeBroadcast(bytes)
			default:
				err = fmt.Errorf("chaos: no replay for routine %s", st.Routine)
			}
			if err != nil {
				return 0, err
			}
			total += d
		}
	}
	return total, nil
}

// RunIteration executes one training iteration and returns its sample.
// A deadline or delivery fault returns a typed *IterationError; the
// iteration is not appended to the report in that case.
//
// Under an elastic plan the iteration is a bounded loop: membership is
// synchronized against the schedule at the boundary (orderly
// reconfiguration), and a mid-iteration membership failure (fail-fast
// delivery error, or a missed deadline covering a scheduled change)
// triggers reconfiguration and a retry of the iteration on the new
// topology — the "drain, quiesce, re-select, resume" protocol. The
// abort-after-n-failures policy turns accumulated mid-iteration
// failures into a typed *AbortError.
func (r *Runner) RunIteration(it int) (IterationSample, error) {
	elastic := r.Plan.HasMembershipFaults()
	// Each retry consumes at least one scheduled membership change, so
	// the loop is bounded by the schedule (+1 for the initial attempt).
	maxAttempts := len(r.Plan.Faults) + 1
	for attempt := 0; ; attempt++ {
		if elastic {
			want, err := r.Plan.MembersAt(r.clock, r.C.Machines)
			if err != nil {
				return IterationSample{}, err
			}
			if !slices.Equal(want, r.members) {
				if err := r.reconfigure(it, r.clock, DetectSchedule, nil); err != nil {
					return IterationSample{}, err
				}
			}
		}
		sample, err := r.runIterationOnce(it)
		if err == nil {
			return sample, nil
		}
		detected, membership := r.classifyMembershipFailure(err)
		if !membership || attempt >= maxAttempts {
			return sample, err
		}
		r.failures++
		if r.Plan.Reconfig.policy() == PolicyAbortAfterN && r.failures >= r.Plan.Reconfig.maxFailures() {
			return sample, &AbortError{Failures: r.failures, Last: err}
		}
		at := r.nw.Now()
		if at < r.clock {
			at = r.clock
		}
		if err := r.reconfigure(it, at, detected, err); err != nil {
			if _, again := r.classifyMembershipFailure(err); again && attempt < maxAttempts {
				// Another departure hit the reconfiguration itself (e.g.
				// during the quiesce barrier); loop to re-sync against
				// the schedule at the new clock.
				r.failures++
				continue
			}
			return IterationSample{}, err
		}
	}
}

// runIterationOnce executes one iteration attempt on the current
// topology.
func (r *Runner) runIterationOnce(it int) (IterationSample, error) {
	iterStart := r.clock
	r.nw.Idle(iterStart)

	eng, err := r.engineAt(iterStart)
	if err != nil {
		return IterationSample{}, err
	}
	res, err := eng.Evaluate(r.Strategy)
	if err != nil {
		return IterationSample{}, err
	}
	predicted := res.Iter

	if r.Plan.Deadline > 0 {
		r.nw.ArmDeadline(r.Plan.Deadline.D())
	}
	comm, err := r.replay(eng)
	if err != nil {
		return IterationSample{}, &IterationError{Iteration: it, Err: err}
	}
	// Observed iteration: the analytic makespan with the analytic
	// inter-machine service time swapped for the faulted replay.
	observed := predicted - res.ResBusy[timeline.ResInter] + comm
	if observed < comm {
		observed = comm
	}

	if r.Trace.Enabled() {
		r.Trace.Record(obs.Span{
			Rank: 0, Device: "iter", Phase: obs.PhaseFault,
			Name:  fmt.Sprintf("iteration %d", it),
			Ready: iterStart, Start: iterStart, End: iterStart + observed,
		})
	}
	if r.Trace.Enabled() || r.Metrics != nil {
		r.nw.Observe(r.Trace, r.Metrics, obs.PhaseFault)
	}
	r.nw.Reset()
	breach, tripped := r.monitor.Observe(predicted, observed)

	stats := r.nw.Stats()
	sample := IterationSample{
		Iteration:   it,
		Members:     r.nw.Nodes(),
		Predicted:   Duration(predicted),
		Observed:    Duration(observed),
		Comm:        Duration(comm),
		Breach:      breach,
		Drops:       int64(stats.Dropped - r.prevStats.Dropped),
		Retransmits: int64(stats.Retransmits - r.prevStats.Retransmits),
		WireRetries: r.wireFaults - r.prevWire,
	}
	r.prevStats, r.prevWire = stats, r.wireFaults
	r.clock = iterStart + observed
	r.report.Samples = append(r.report.Samples, sample)

	if tripped && !r.reselected {
		rs, err := r.reselect(it, iterStart, r.Flight)
		if err != nil {
			return sample, err
		}
		r.report.Reselected = rs
		r.reselected = true
		r.monitor.Reset()
	}
	return sample, nil
}

// reselect re-runs strategy selection on the degraded topology — the
// live network's bottleneck link and the device scales active at t — and
// adopts the winner when it improves on the incumbent. fl receives the
// re-selection's flight record; a caller that records its own anomaly
// passes nil.
func (r *Runner) reselect(it int, t time.Duration, fl *flight.Recorder) (*Reselection, error) {
	gpuS, cpuS := r.Plan.DeviceScalesAt(t)
	next, rs, err := Reselect(r.M, r.curC, r.Spec, r.Strategy, ReselectOptions{
		InterScale: bottleneckScale(r.nw.Snapshot(), r.C.InterBandwidth),
		GPUScale:   gpuS, CPUScale: cpuS,
		Parallelism: r.Parallelism, Explain: r.Explain,
		ProbeDeadline: r.ProbeDeadline,
		Tracer:        r.Tracer, Flight: fl,
	})
	if err != nil {
		return nil, err
	}
	rs.Iteration = it
	if r.Deterministic {
		rs.SelectionTime = 0
	}
	if rs.Adopted {
		r.Strategy = next
	}
	return rs, nil
}

// Run executes iters iterations and returns the final report. It stops
// early on the first iteration fault, returning the typed error along
// with the report accumulated so far.
func (r *Runner) Run(iters int) (*Report, error) {
	for it := 0; it < iters; it++ {
		if _, err := r.RunIteration(it); err != nil {
			return r.Report(), err
		}
	}
	return r.Report(), nil
}
