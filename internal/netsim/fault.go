// Fault-injection support for the message-level network simulator: typed
// errors for aborted operations, retransmission policy for lossy links,
// and a programmable timeline of link-state transitions. Everything here
// is deterministic — loss is drawn from a seeded private PRNG, and fault
// transitions are applied lazily as virtual time crosses them, never
// through the event queue (so a collective's Run never dispatches a
// fault event that belongs to a later window).
package netsim

import (
	"fmt"
	"math"
	"os"
	"time"
)

// DeadlineError reports a collective aborted because it crossed its
// armed virtual-time deadline. The network's clock is left at the last
// event dispatched before the deadline and every pending event (stranded
// messages, retransmission timers) has been discarded.
type DeadlineError struct {
	// Deadline is the absolute virtual instant the operation was allowed
	// to run until.
	Deadline time.Duration
	// Elapsed is how long the operation ran before the abort.
	Elapsed time.Duration
	// Pending counts the events discarded at the abort.
	Pending int
}

func (e *DeadlineError) Error() string {
	return fmt.Sprintf("netsim: collective exceeded deadline %v after %v (%d events discarded)",
		e.Deadline, e.Elapsed, e.Pending)
}

// Unwrap maps the simulator's deadline abort onto the standard library's
// deadline sentinel, so errors.Is(err, os.ErrDeadlineExceeded) holds
// through any wrap chain.
func (e *DeadlineError) Unwrap() error { return os.ErrDeadlineExceeded }

// MemberGoneError reports a message addressed to (or sourced from) a
// node that has left the network's membership — the fail-fast signal the
// elastic-reconfiguration controller keys on.
type MemberGoneError struct {
	// Node is the departed member.
	Node int
	// At is the virtual time the failed transmission was attempted or
	// would have arrived.
	At time.Duration
}

func (e *MemberGoneError) Error() string {
	return fmt.Sprintf("netsim: node %d left the membership (at %v)", e.Node, e.At)
}

// DeliveryError reports a message that could not be delivered: its
// retransmission budget was exhausted on a lossy link, or its endpoint
// left the membership mid-flight (Cause then holds the
// *MemberGoneError).
type DeliveryError struct {
	Src, Dst int
	// Attempts is the number of transmissions tried, including the first.
	Attempts int
	// Cause, when non-nil, is the underlying failure (a departed member);
	// nil means plain retransmission exhaustion.
	Cause error
}

func (e *DeliveryError) Error() string {
	if e.Cause != nil {
		return fmt.Sprintf("netsim: message %d->%d undeliverable after %d attempts: %v",
			e.Src, e.Dst, e.Attempts, e.Cause)
	}
	return fmt.Sprintf("netsim: message %d->%d lost after %d attempts", e.Src, e.Dst, e.Attempts)
}

// Unwrap exposes the underlying cause (nil for plain loss exhaustion).
func (e *DeliveryError) Unwrap() error { return e.Cause }

// Recovery is the retransmission policy for lost messages: a lost message
// is retried after Timeout, then Timeout*Backoff, and so on, capped at
// MaxRTO, up to MaxAttempts total transmissions. The zero value means
// "use defaults" (see DefaultRecovery).
type Recovery struct {
	// Timeout is the base retransmission timeout (RTO) after a loss.
	Timeout time.Duration
	// Backoff is the multiplicative RTO growth per consecutive loss of
	// the same message; values <= 1 disable growth.
	Backoff float64
	// MaxRTO caps the backed-off timeout.
	MaxRTO time.Duration
	// MaxAttempts bounds total transmissions of one message; exceeding it
	// surfaces a DeliveryError from the collective.
	MaxAttempts int
}

// DefaultRecovery returns the retransmission defaults: 200µs base
// timeout, 2x backoff capped at 5ms, 16 attempts.
func DefaultRecovery() Recovery {
	return Recovery{Timeout: 200 * time.Microsecond, Backoff: 2, MaxRTO: 5 * time.Millisecond, MaxAttempts: 16}
}

// withDefaults fills zero fields from DefaultRecovery.
func (r Recovery) withDefaults() Recovery {
	d := DefaultRecovery()
	if r.Timeout <= 0 {
		r.Timeout = d.Timeout
	}
	if r.Backoff <= 0 {
		r.Backoff = d.Backoff
	}
	if r.MaxRTO <= 0 {
		r.MaxRTO = d.MaxRTO
	}
	if r.MaxAttempts <= 0 {
		r.MaxAttempts = d.MaxAttempts
	}
	return r
}

// rto is the retransmission timeout after `attempt` prior transmissions
// (attempt >= 1 for the first retry).
func (r Recovery) rto(attempt int) time.Duration {
	t := float64(r.Timeout) * math.Pow(r.Backoff, float64(attempt-1))
	if capped := float64(r.MaxRTO); t > capped {
		t = capped
	}
	return time.Duration(t)
}

// MemberChange is a scheduled membership transition for one node.
type MemberChange int8

const (
	// MemberNone leaves membership unchanged.
	MemberNone MemberChange = 0
	// MemberLeave deactivates the node: subsequent and in-flight
	// messages touching it fail fast with a *MemberGoneError.
	MemberLeave MemberChange = -1
	// MemberJoin reactivates the node.
	MemberJoin MemberChange = 1
)

// Transition is one scheduled change of network fault state, applied when
// virtual time reaches At. Transitions never enter the event queue: the
// network applies them lazily whenever it computes a transfer, so a
// collective's event loop only ever dispatches message events.
type Transition struct {
	// At is the absolute virtual time of the change.
	At time.Duration
	// Src, Dst select the link to change; Src = -1 selects every link.
	// For a membership transition, Src is the node and Dst is ignored.
	Src, Dst int
	// Bps is the link's new bandwidth; 0 leaves bandwidth unchanged.
	Bps float64
	// Loss is the network's new message-loss probability in [0, 1);
	// a negative value leaves the loss rate unchanged.
	Loss float64
	// Member, when non-zero, deactivates (MemberLeave) or reactivates
	// (MemberJoin) node Src.
	Member MemberChange
}

// FaultStats aggregates the network's fault activity since construction.
type FaultStats struct {
	// Sent counts transmissions, including retransmissions.
	Sent int
	// Dropped counts transmissions lost in flight.
	Dropped int
	// Retransmits counts retry transmissions (Dropped messages that were
	// retried; equals Dropped unless a message exhausted its attempts).
	Retransmits int
	// Abandoned counts messages that exhausted their retransmission
	// budget (each surfaced a *DeliveryError); Dropped = Retransmits +
	// Abandoned when every abandonment came from loss.
	Abandoned int
	// MemberFailures counts transmissions failed fast because an
	// endpoint had left the membership.
	MemberFailures int
	// DeliveredBytes and WastedBytes split the traffic into payload that
	// arrived and payload burned by drops.
	DeliveredBytes int64
	WastedBytes    int64
}

// Add accumulates another network's statistics — the elastic controller
// retires a network on every reconfiguration and folds its counters into
// the run total.
func (s FaultStats) Add(o FaultStats) FaultStats {
	s.Sent += o.Sent
	s.Dropped += o.Dropped
	s.Retransmits += o.Retransmits
	s.Abandoned += o.Abandoned
	s.MemberFailures += o.MemberFailures
	s.DeliveredBytes += o.DeliveredBytes
	s.WastedBytes += o.WastedBytes
	return s
}
