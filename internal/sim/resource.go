package sim

import (
	"fmt"
	"time"
)

// Span records when a job held a resource.
type Span struct {
	Label string
	Ready time.Duration // when the job was submitted
	Start time.Duration // when the resource was granted
	End   time.Duration // Start + duration
}

// Queued reports how long the job waited for the resource.
func (s Span) Queued() time.Duration { return s.Start - s.Ready }

// FIFO is a resource that serves jobs one at a time in submission order.
// It is used for exclusive devices: a GPU compute stream, a NIC, an
// intra-machine link, a host compression thread.
//
// FIFO supports two usage styles. Reserve is the synchronous analytic
// style: given a ready time it immediately computes the span the job will
// occupy, without involving the event engine. Submit is the event-driven
// style netsim's links use: the completion callback fires through the
// engine at the span's end.
type FIFO struct {
	Name  string
	eng   *Engine
	free  time.Duration // earliest instant the resource is idle
	spans []Span
	busy  time.Duration // accumulated service time
}

// NewFIFO returns a FIFO resource attached to eng. eng may be nil when the
// resource is used only through Reserve.
func NewFIFO(eng *Engine, name string) *FIFO {
	return &FIFO{Name: name, eng: eng}
}

// Reserve books dur of exclusive time for a job that becomes ready at
// ready, and returns the span it will occupy. Jobs must be reserved in
// non-decreasing priority order by the caller; the resource itself imposes
// FIFO service among reservations in the order they are made.
func (f *FIFO) Reserve(label string, ready, dur time.Duration) Span {
	if dur < 0 {
		panic(fmt.Sprintf("sim: negative duration %v on %s", dur, f.Name))
	}
	start := ready
	if f.free > start {
		start = f.free
	}
	sp := Span{Label: label, Ready: ready, Start: start, End: start + dur}
	f.free = sp.End
	f.busy += dur
	f.spans = append(f.spans, sp)
	return sp
}

// Submit books the job like Reserve and additionally schedules done (if
// non-nil) on the engine at the span's end.
func (f *FIFO) Submit(label string, ready, dur time.Duration, done func(Span)) Span {
	sp := f.Reserve(label, ready, dur)
	if done != nil {
		if f.eng == nil {
			panic("sim: Submit with callback on detached FIFO " + f.Name)
		}
		f.eng.Schedule(sp.End, func() { done(sp) })
	}
	return sp
}

// Free reports the earliest instant the resource is idle given the
// reservations so far.
func (f *FIFO) Free() time.Duration { return f.free }

// Busy reports the accumulated service time across all reservations.
func (f *FIFO) Busy() time.Duration { return f.busy }

// Spans returns a copy of the reservation history in service order. The
// history accumulates until Reset; callers that evaluate many runs on one
// resource (the telemetry layer harvests these spans per run) must Reset
// between runs to keep records from bleeding across them.
func (f *FIFO) Spans() []Span { return append([]Span(nil), f.spans...) }

// Reset clears all reservations, returning the resource to idle at time 0.
func (f *FIFO) Reset() {
	f.free = 0
	f.busy = 0
	f.spans = f.spans[:0]
}
