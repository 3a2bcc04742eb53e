package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"

	"espresso/internal/obs/wtrace"
)

// span is one timed call into a layer, recorded by the benchmark's own
// code around the layer's public function.
type span struct {
	Name       string
	Start, End time.Duration // offsets from the recorder's start
	Parent     int           // index of the enclosing span, -1 at the top
	Op         int           // operation the span belongs to
}

func (s span) dur() time.Duration { return s.End - s.Start }

// recorder keeps a traced replay's spans in memory. Replays are
// single-threaded, so it is not locked. Every method is a no-op on a nil
// recorder, which is how the untraced run shares code with the traced
// one.
type recorder struct {
	t0    time.Time
	op    int // operation the spans being recorded belong to
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) now() time.Duration { return time.Since(r.t0) }

// operation names the operation that subsequent spans belong to.
func (r *recorder) operation(op int) {
	if r != nil {
		r.op = op
	}
}

// begin opens a span and returns its index.
func (r *recorder) begin(name string, parent int) int {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{Name: name, Start: r.now(), Parent: parent, Op: r.op})
	return len(r.spans) - 1
}

func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	r.spans[id].End = r.now()
}

// adopt copies a selection's phase spans (the Selector's own wall-clock
// trace, whose clock started at offset base) under parent.
func (r *recorder) adopt(phases []wtrace.Span, parent int, base time.Duration) {
	first := len(r.spans)
	for _, p := range phases {
		up := parent
		if p.Parent != wtrace.NoParent {
			up = first + p.Parent
		}
		r.spans = append(r.spans, span{Name: "core." + p.Name, Start: base + p.Start, End: base + p.End, Parent: up, Op: r.op})
	}
}

// durations returns every span duration of a name.
func (r *recorder) durations(name string) []time.Duration {
	var out []time.Duration
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

// total sums a name's span durations.
func (r *recorder) total(name string) time.Duration {
	var sum time.Duration
	for _, s := range r.spans {
		if s.Name == name {
			sum += s.dur()
		}
	}
	return sum
}

// self computes each span's self time: its duration minus the part its
// children cover. Replays are sequential, so children never overlap.
func (r *recorder) self() []time.Duration {
	out := make([]time.Duration, len(r.spans))
	for i, s := range r.spans {
		out[i] += s.dur()
		if s.Parent >= 0 {
			out[s.Parent] -= s.dur()
		}
	}
	return out
}

// writeChrome writes the spans as Chrome trace-event JSON (loadable in
// Perfetto or chrome://tracing): complete events on one track, nested by
// containment, each carrying its operation ID, parent span and self
// time.
func (r *recorder) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	self := r.self()
	events := make([]event, len(r.spans))
	for i, s := range r.spans {
		events[i] = event{
			Name: s.Name, Cat: "bench", Ph: "X", Ts: us(s.Start), Dur: us(s.dur()), Pid: 1, Tid: 1,
			Args: map[string]any{"op": s.Op, "span": i, "parent": s.Parent, "self_us": us(self[i])},
		}
	}
	// Viewers want begin order; adopted phase spans arrive after their
	// selection ended.
	sort.SliceStable(events, func(i, k int) bool { return events[i].Ts < events[k].Ts })
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
