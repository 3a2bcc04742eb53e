// Elastic membership: the Runner's reconfiguration protocol. A plan's
// leave/join faults change the machine set mid-run; the Runner detects a
// departure (scheduled boundary, in-flight delivery failure against a
// departed rank, or a missed deadline covering a membership change),
// drains the iteration, quiesces the survivors with a bounded
// retry/timeout/backoff barrier, rebuilds the network and cost models on
// the surviving topology, applies the plan's degradation policy
// (re-select, continue degraded, or abort after N failures), and
// resumes — symmetrically re-expanding when a rank rejoins.
package chaos

import (
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"time"

	"espresso/internal/netsim"
	"espresso/internal/obs/flight"
)

// Detection labels how a membership change was noticed.
const (
	// DetectSchedule is an orderly boundary detection: the plan's
	// membership at the iteration start differs from the runner's.
	DetectSchedule = "schedule"
	// DetectDelivery is a mid-iteration fail-fast: a message touched a
	// departed rank.
	DetectDelivery = "delivery-failure"
	// DetectDeadline is a missed iteration deadline whose window covers a
	// scheduled membership change.
	DetectDeadline = "deadline"
)

// MembershipEvent records one reconfiguration in the run report.
type MembershipEvent struct {
	// Iteration is the iteration during (or before) which the change was
	// detected; Time is the virtual detection instant.
	Iteration int      `json:"iteration"`
	Time      Duration `json:"time"`
	// Detected is one of the Detect* labels.
	Detected string `json:"detected"`
	// Left/Joined are the ranks that departed/returned in this event;
	// Members is the full surviving rank set afterwards.
	Left    []int `json:"left,omitempty"`
	Joined  []int `json:"joined,omitempty"`
	Members []int `json:"members"`
	// Generation counts reconfigurations (the initial topology is 0).
	Generation int `json:"generation"`
	// Policy echoes the degradation policy applied.
	Policy Policy `json:"policy"`
	// BarrierAttempts/BarrierTime describe the quiesce barrier: how many
	// bounded attempts it took and the virtual time it consumed.
	BarrierAttempts int      `json:"barrier_attempts"`
	BarrierTime     Duration `json:"barrier_time"`
	// Reselection is the policy's re-selection record (reselect and
	// abort-after-n-failures policies only).
	Reselection *Reselection `json:"reselection,omitempty"`
}

// WriteText prints the event as espresso-sim and espresso-chaos report
// it: one line for the change, one more for the policy's re-selection
// (CI's elastic smoke greps these lines).
func (ev *MembershipEvent) WriteText(w io.Writer) {
	fmt.Fprintf(w, "membership change at %v (%s): left=%v joined=%v -> %d machines (barrier %d attempts, %v)\n",
		ev.Time, ev.Detected, ev.Left, ev.Joined, len(ev.Members), ev.BarrierAttempts, ev.BarrierTime)
	if rs := ev.Reselection; rs != nil {
		fmt.Fprintf(w, "  re-selected on %d machines: %v -> %v (%.1f%% better, adopted=%v)\n",
			len(ev.Members), rs.Before, rs.After, 100*rs.Improvement, rs.Adopted)
	}
}

// BarrierError reports a quiesce barrier that exhausted its bounded
// attempts — the surviving set could not agree to resume.
type BarrierError struct {
	Attempts int
	Elapsed  time.Duration
	Last     error
}

func (e *BarrierError) Error() string {
	return fmt.Sprintf("chaos: quiesce barrier failed after %d attempts (%v): %v",
		e.Attempts, e.Elapsed, e.Last)
}

func (e *BarrierError) Unwrap() error { return e.Last }

// AbortError reports a run stopped by the abort-after-n-failures policy.
type AbortError struct {
	Failures int
	Last     error
}

func (e *AbortError) Error() string {
	return fmt.Sprintf("chaos: aborted after %d membership failures: %v", e.Failures, e.Last)
}

func (e *AbortError) Unwrap() error { return e.Last }

// classifyMembershipFailure decides whether an iteration error is
// membership-caused: a typed MemberGoneError anywhere in the chain, or a
// deadline abort whose window covers a scheduled membership change.
func (r *Runner) classifyMembershipFailure(err error) (string, bool) {
	var gone *netsim.MemberGoneError
	if errors.As(err, &gone) {
		return DetectDelivery, true
	}
	if errors.Is(err, os.ErrDeadlineExceeded) && r.Plan.Deadline > 0 {
		want, werr := r.Plan.MembersAt(r.clock+r.Plan.Deadline.D(), r.C.Machines)
		if werr == nil && !slices.Equal(want, r.members) {
			return DetectDeadline, true
		}
	}
	return "", false
}

// reconfigure executes the reconfiguration protocol at virtual time at:
// recompute the scheduled membership, build the next generation's
// topology on the survivors and idle its network to now, run the quiesce
// barrier, swap the runner's topology state, apply the degradation
// policy, and record the MembershipEvent. cause is the triggering error
// (nil for an orderly boundary detection).
func (r *Runner) reconfigure(it int, at time.Duration, detected string, cause error) error {
	want, err := r.Plan.MembersAt(at, r.C.Machines)
	if err != nil {
		return err
	}
	survivors := ranksOf(want)
	if len(survivors) == 0 {
		return fmt.Errorf("chaos: membership empty at %v", at)
	}
	left, joined := diffMembers(r.members, want)

	gen := r.generation + 1
	nw2, curC, cm, err := r.topology(gen, survivors)
	if err != nil {
		return err
	}
	nw2.Idle(at)

	attempts, barrierTime, err := r.quiesce(nw2)
	if err != nil {
		return err
	}

	// Swap topology state, retiring the old network's counters.
	r.netBase = r.netBase.Add(r.nw.Stats())
	r.nw, r.curC, r.cm = nw2, curC, cm
	r.members, r.generation = want, gen
	r.prevStats = nw2.Stats()
	r.clock = nw2.Now()
	r.monitor.Reset()

	ev := MembershipEvent{
		Iteration: it, Time: Duration(at), Detected: detected,
		Left: left, Joined: joined, Members: survivors,
		Generation: gen, Policy: r.Plan.Reconfig.policy(),
		BarrierAttempts: attempts, BarrierTime: Duration(barrierTime),
	}
	switch ev.Policy {
	case PolicyContinueDegraded:
		// Keep the stale strategy — the degradation baseline.
	default: // reselect, abort-after-n-failures
		// The reconfig anomaly below is this re-selection's flight record.
		if ev.Reselection, err = r.reselect(it, r.clock, nil); err != nil {
			return err
		}
	}
	r.report.Membership = append(r.report.Membership, ev)
	if r.Flight != nil {
		fp := fmt.Sprintf("reconfig %s gen=%d members=%v left=%v joined=%v",
			detected, gen, survivors, left, joined)
		r.Flight.Complete(nil, fp, 0, 0, flight.OutcomeReconfig, cause)
	}
	return nil
}

// quiesce runs the bounded retry/timeout/backoff barrier on the new
// network: the survivors exchange a small allgather under a deadline
// that grows by the configured backoff each attempt. Exhausting the
// attempt budget is fatal (a typed *BarrierError).
func (r *Runner) quiesce(nw *netsim.Network) (attempts int, elapsed time.Duration, err error) {
	timeout, backoff, budget := r.Plan.Reconfig.barrier()
	start := nw.Now()
	var last error
	for k := 1; k <= budget; k++ {
		nw.ArmDeadline(time.Duration(float64(timeout) * math.Pow(backoff, float64(k-1))))
		_, last = nw.RingAllgather(barrierBytes)
		nw.Reset()
		if last == nil {
			nw.ArmDeadline(0)
			return k, nw.Now() - start, nil
		}
	}
	nw.ArmDeadline(0)
	return budget, nw.Now() - start, &BarrierError{
		Attempts: budget, Elapsed: nw.Now() - start, Last: last,
	}
}

// barrierBytes is each survivor's quiesce-barrier contribution: a
// membership digest, not a payload.
const barrierBytes = 64

// ranksOf lists the true indices of a membership vector.
func ranksOf(members []bool) []int {
	out := make([]int, 0, len(members))
	for i, up := range members {
		if up {
			out = append(out, i)
		}
	}
	return out
}

// diffMembers reports the ranks that left (in old, not in new) and
// joined (in new, not in old).
func diffMembers(old, new []bool) (left, joined []int) {
	for i := range old {
		switch {
		case old[i] && !new[i]:
			left = append(left, i)
		case !old[i] && new[i]:
			joined = append(joined, i)
		}
	}
	return left, joined
}
