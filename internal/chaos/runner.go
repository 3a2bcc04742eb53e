package chaos

import (
	"fmt"
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
	baseBps float64

	// Elastic-membership state: curC is the cluster restricted to the
	// surviving machines, members is the full-rank membership vector,
	// rankMap maps the current network's node i to its global rank,
	// netBase accumulates retired networks' fault statistics.
	curC       *cluster.Cluster
	members    []bool
	rankMap    []int
	generation int
	failures   int
	netBase    netsim.FaultStats

	clock      time.Duration
	prevStats  netsim.FaultStats
	wireFaults int64
	prevWire   int64
	reselected bool
	wireRNG    rng
	report     *Report
}

// rng is a splitmix64 stream for the data-plane corruption draws,
// independent of the network's loss stream.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) float64() float64 { return float64(r.next()>>11) / (1 << 53) }

// NewRunner builds a runner: a fresh message-level network shaped like
// the cluster's inter-machine fabric, armed with the plan's faults and
// retry policy.
func NewRunner(m *model.Model, c *cluster.Cluster, spec compress.Spec, s *strategy.Strategy, plan *Plan) (*Runner, error) {
	if s == nil {
		return nil, fmt.Errorf("chaos: nil strategy")
	}
	nw, err := netsim.New(c.Machines, c.InterLatency, c.InterBandwidth)
	if err != nil {
		return nil, err
	}
	if err := plan.Arm(nw); err != nil {
		return nil, err
	}
	cm, err := cost.NewModels(c, spec)
	if err != nil {
		return nil, err
	}
	members := make([]bool, c.Machines)
	rankMap := make([]int, c.Machines)
	for i := range members {
		members[i] = true
		rankMap[i] = i
	}
	return &Runner{
		M: m, C: c, Spec: spec, Plan: plan, Strategy: s,
		// The plan's per-iteration deadline also bounds the Explain
		// re-probe during re-selection, so the decision log cannot run
		// unbounded on a topology slow enough to have tripped the monitor.
		ProbeDeadline: plan.Deadline.D(),
		nw:            nw, cm: cm, monitor: NewMonitor(plan.Monitor),
		baseBps: c.InterBandwidth,
		curC:    c, members: members, rankMap: rankMap,
		wireRNG: rng{s: plan.Seed ^ 0xc0ffee},
		report:  &Report{Plan: plan},
	}, nil
}

// Network exposes the faulted network (tests inspect link state).
func (r *Runner) Network() *netsim.Network { return r.nw }

// Monitor exposes the degradation detector.
func (r *Runner) Monitor() *Monitor { return r.monitor }

// ActiveCluster is the cluster restricted to the current membership —
// the full cluster until a rank leaves. Data planes sized to the
// topology (espresso-sim's DDL executor) rebuild when it changes.
func (r *Runner) ActiveCluster() *cluster.Cluster { return r.curC }

// Members lists the surviving global ranks, ascending.
func (r *Runner) Members() []int { return append([]int(nil), r.rankMap...) }

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
			if rate <= 0 || r.wireRNG.float64() >= rate || len(buf) == 0 {
				return buf
			}
			r.wireFaults++
			idx := int(r.wireRNG.next() % uint64(len(buf)))
			buf[idx] ^= 0x5a
			return buf
		},
	}
}

// engineAt returns the analytic engine for the device scales active at
// virtual time t: the base cost models when healthy, scaled clones when
// a slow-device fault is open.
func (r *Runner) engineAt(t time.Duration) (*timeline.Engine, float64, float64, error) {
	gpuS, cpuS := r.Plan.DeviceScalesAt(t)
	cm := r.cm
	if gpuS != 1 || cpuS != 1 {
		var err error
		if cm, err = cm.WithDeviceScale(gpuS, cpuS); err != nil {
			return nil, 0, 0, err
		}
	}
	eng := timeline.New(r.M, r.curC, cm)
	eng.RecordOps = false
	return eng, gpuS, cpuS, nil
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
			if !equalMembers(want, r.members) {
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

	eng, gpuS, cpuS, err := r.engineAt(iterStart)
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
		if err := r.reselect(it, gpuS, cpuS); err != nil {
			return sample, err
		}
	}
	return sample, nil
}

// reselect snapshots the degraded topology and re-runs strategy
// selection, adopting the winner when it improves on the incumbent.
func (r *Runner) reselect(it int, gpuS, cpuS float64) error {
	scale := bottleneckScale(r.nw.Snapshot(), r.baseBps)
	next, rs, err := Reselect(r.M, r.curC, r.Spec, r.Strategy, ReselectOptions{
		InterScale: scale, GPUScale: gpuS, CPUScale: cpuS,
		Parallelism: r.Parallelism, Explain: r.Explain,
		ProbeDeadline: r.ProbeDeadline,
		Tracer:        r.Tracer, Flight: r.Flight,
	})
	if err != nil {
		return err
	}
	rs.Iteration = it
	if r.Deterministic {
		rs.SelectionTime = 0
	}
	r.report.Reselected = rs
	r.reselected = true
	if rs.Adopted {
		r.Strategy = next
	}
	r.monitor.Reset()
	return nil
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
