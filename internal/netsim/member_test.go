package netsim

import (
	"errors"
	"os"
	"slices"
	"testing"
	"time"
)

// A membership transition mid-collective fails in-flight and subsequent
// messages fast with the typed DeliveryError -> MemberGoneError chain.
func TestMemberLeaveFailsFast(t *testing.T) {
	nw := MustNew(4, time.Microsecond, 1e9)
	if err := nw.Program([]Transition{{At: 0, Src: 3, Dst: 3, Loss: -1, Member: MemberLeave}}); err != nil {
		t.Fatal(err)
	}
	_, err := nw.RingAllreduce(4 << 20)
	var de *DeliveryError
	if !errors.As(err, &de) {
		t.Fatalf("got %v, want *DeliveryError", err)
	}
	var gone *MemberGoneError
	if !errors.As(err, &gone) {
		t.Fatalf("DeliveryError does not wrap MemberGoneError: %v", err)
	}
	if gone.Node != 3 {
		t.Fatalf("gone node = %d, want 3", gone.Node)
	}
	if nw.Stats().MemberFailures == 0 {
		t.Fatal("member failures not counted")
	}
	if nw.active[3] {
		t.Fatal("node 3 still active after leave")
	}
}

// A departed node that rejoins (scheduled transition) is reachable
// again; the membership round-trips.
func TestMemberRejoin(t *testing.T) {
	nw := MustNew(3, 0, 1e9)
	apply(t, nw, Transition{Src: 2, Dst: 2, Loss: -1, Member: MemberLeave})
	if got := nw.active; !slices.Equal(got, []bool{true, true, false}) {
		t.Fatalf("active = %v, want [true true false]", got)
	}
	apply(t, nw, Transition{Src: 2, Dst: 2, Loss: -1, Member: MemberJoin})
	if _, err := nw.RingAllreduce(1 << 20); err != nil {
		t.Fatalf("collective after rejoin failed: %v", err)
	}
}

// Retransmission exhaustion: the typed error surfaces, FaultStats counts
// the abandonment, and the ledger stays consistent (every drop is either
// retried or abandoned).
func TestRetransmissionExhaustionAccounting(t *testing.T) {
	nw := MustNew(2, 0, 1e9)
	nw.Seed(1)
	nw.SetRecovery(Recovery{Timeout: time.Microsecond, MaxAttempts: 3})
	apply(t, nw, Transition{Src: -1, Loss: 0.999999})
	_, err := nw.RingAllreduce(1 << 20)
	var de *DeliveryError
	if !errors.As(err, &de) {
		t.Fatalf("got %v, want *DeliveryError", err)
	}
	if de.Cause != nil {
		t.Fatalf("loss exhaustion has a cause: %v", de.Cause)
	}
	st := nw.Stats()
	if st.Abandoned == 0 {
		t.Fatalf("no abandonment counted: %+v", st)
	}
	if st.Dropped != st.Retransmits+st.Abandoned {
		t.Fatalf("drop ledger inconsistent: dropped %d != retransmits %d + abandoned %d",
			st.Dropped, st.Retransmits, st.Abandoned)
	}
}

// The typed errors support errors.Is/As through wrap chains: a
// DeadlineError is os.ErrDeadlineExceeded, and FaultStats.Add sums
// every counter.
func TestErrorChainsAndStatsAdd(t *testing.T) {
	de := &DeadlineError{Deadline: time.Millisecond, Elapsed: time.Millisecond, Pending: 1}
	if !errors.Is(de, os.ErrDeadlineExceeded) {
		t.Fatal("DeadlineError is not os.ErrDeadlineExceeded")
	}
	wrapped := &DeliveryError{Src: 0, Dst: 1, Attempts: 1,
		Cause: &MemberGoneError{Node: 1, At: time.Millisecond}}
	var gone *MemberGoneError
	if !errors.As(wrapped, &gone) || gone.Node != 1 {
		t.Fatalf("errors.As through DeliveryError failed: %v", wrapped)
	}

	a := FaultStats{Sent: 1, Dropped: 2, Retransmits: 3, Abandoned: 4,
		MemberFailures: 5, DeliveredBytes: 6, WastedBytes: 7}
	sum := a.Add(a)
	want := FaultStats{Sent: 2, Dropped: 4, Retransmits: 6, Abandoned: 8,
		MemberFailures: 10, DeliveredBytes: 12, WastedBytes: 14}
	if sum != want {
		t.Fatalf("Add = %+v, want %+v", sum, want)
	}
}
