// Package sim provides a small deterministic discrete-event simulation
// kernel: simulated entities schedule callbacks at virtual times (Engine)
// and serialize work on single-server resources (FIFO). Its user is the
// message-level network simulator, internal/netsim, whose links are FIFOs
// on one Engine; internal/timeline runs its own event loop and shares
// only the Span record type.
//
// The kernel is intentionally minimal: a monotonically advancing virtual
// clock, a priority queue of events, and resources that grant exclusive
// access in arrival order. Determinism matters because every experiment in
// the evaluation must be exactly reproducible; ties between events
// scheduled for the same instant are broken by schedule order.
package sim

import (
	"container/heap"
	"fmt"
	"time"
)

// Engine is a discrete-event simulator. The zero value is not usable; use
// NewEngine.
type Engine struct {
	now    time.Duration
	queue  eventHeap
	seq    uint64
	nsteps uint64
}

// NewEngine returns an engine with its clock at zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now reports the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// Steps reports how many events have been dispatched so far. It is useful
// for loop-guard assertions in tests.
func (e *Engine) Steps() uint64 { return e.nsteps }

// Schedule arranges for fn to run at virtual time at. Scheduling in the
// past panics: it always indicates a logic error in a model, and silently
// reordering time would corrupt every downstream measurement.
func (e *Engine) Schedule(at time.Duration, fn func()) {
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, e.now))
	}
	e.seq++
	heap.Push(&e.queue, &event{at: at, seq: e.seq, fn: fn})
}

// After schedules fn to run d from the current time.
func (e *Engine) After(d time.Duration, fn func()) {
	e.Schedule(e.now+d, fn)
}

// Run dispatches events until the queue is empty and returns the final
// virtual time.
func (e *Engine) Run() time.Duration {
	for len(e.queue) > 0 {
		ev := heap.Pop(&e.queue).(*event)
		e.now = ev.at
		e.nsteps++
		ev.fn()
	}
	return e.now
}

// RunUntil dispatches events with timestamps <= deadline. Events scheduled
// beyond the deadline remain queued. It returns the virtual time after the
// last dispatched event (or deadline if nothing ran past it).
func (e *Engine) RunUntil(deadline time.Duration) time.Duration {
	for len(e.queue) > 0 && e.queue[0].at <= deadline {
		ev := heap.Pop(&e.queue).(*event)
		e.now = ev.at
		e.nsteps++
		ev.fn()
	}
	if e.now < deadline {
		e.now = deadline
	}
	return e.now
}

// RunBefore dispatches events with timestamps <= deadline, like RunUntil,
// but leaves the clock at the last dispatched event instead of advancing
// it to the deadline. Callers that measure elapsed work (a collective
// bounded by a fault deadline) use RunBefore; RunUntil models "wait
// until".
func (e *Engine) RunBefore(deadline time.Duration) time.Duration {
	for len(e.queue) > 0 && e.queue[0].at <= deadline {
		ev := heap.Pop(&e.queue).(*event)
		e.now = ev.at
		e.nsteps++
		ev.fn()
	}
	return e.now
}

// Clear discards every pending event without running it; the clock stays
// where it is. The deadline-abort path uses it to drop stranded messages
// and retransmission timers whose completion callbacks belong to an
// operation that has already failed.
func (e *Engine) Clear() {
	for i := range e.queue {
		e.queue[i] = nil
	}
	e.queue = e.queue[:0]
}

// Pending reports the number of queued events.
func (e *Engine) Pending() int { return len(e.queue) }

type event struct {
	at  time.Duration
	seq uint64
	fn  func()
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}
