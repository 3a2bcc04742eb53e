// Package wtrace is the wall-clock counterpart of the virtual-time
// telemetry in internal/obs: a low-overhead, request-scoped span tracer
// for the selection machinery itself. Where obs.Span answers "where does
// the *simulated* iteration spend its time", a wtrace span answers
// "where did *this process* spend its wall-clock time while deciding" —
// the drill-down a fleet operator needs when one selection is 10x slower
// than its neighbors.
//
// The design point is a genuinely free disabled path: every method on a
// nil *Req (and Start on a nil *Tracer) is a no-op, so instrumented code
// calls the tracer unconditionally and pays one nil check when tracing
// is off. The enabled path is pooled — requests and their span buffers
// are recycled through the Tracer's sync.Pool — so sustained tracing
// does not grow the heap per request.
//
// Spans form a tree (Parent/ID indices into the request's span slice)
// and may be recorded concurrently from fan-out workers; appends are
// serialized by a per-request mutex. Timestamps are monotonic offsets
// from the request's start, so the tree is immune to wall-clock steps.
package wtrace

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// NoParent marks a top-level span of a request.
const NoParent = -1

// Span is one timed interval of the selection pipeline, in wall-clock
// time relative to the request's start.
type Span struct {
	// ID is the span's index within the request; Parent is the enclosing
	// span's ID, or NoParent for a top-level pipeline phase.
	ID     int `json:"id"`
	Parent int `json:"parent"`
	// Name labels the pipeline phase ("seed", "sweep", "probe", ...).
	Name string `json:"name"`
	// Worker is 1 + the par.Each worker index for spans recorded inside
	// a fan-out (worker 0 is the request's own goroutine); 0 means the
	// span is outside any fan-out.
	Worker int `json:"worker,omitempty"`
	// Tensor is 1 + the tensor index for per-tensor probe spans; 0 means
	// no tensor association (the obs.Span convention).
	Tensor int `json:"tensor,omitempty"`
	// Start and End are monotonic offsets from the request start.
	Start time.Duration `json:"start_ns"`
	End   time.Duration `json:"end_ns"`
	// Evals counts the F(S) timeline evaluations attributed to the span.
	Evals int64 `json:"evals,omitempty"`
}

// Dur is the span's wall-clock duration.
func (s Span) Dur() time.Duration { return s.End - s.Start }

// TensorIndex decodes the span's tensor association.
func (s Span) TensorIndex() (int, bool) {
	if s.Tensor <= 0 {
		return -1, false
	}
	return s.Tensor - 1, true
}

// Tracer hands out request-scoped trace contexts. A nil *Tracer is the
// disabled state: Start returns a nil *Req, whose methods all no-op.
type Tracer struct {
	ids  atomic.Uint64
	pool sync.Pool
}

// New returns an enabled tracer.
func New() *Tracer {
	t := &Tracer{}
	t.pool.New = func() any { return &Req{} }
	return t
}

// Enabled reports whether Start returns live requests.
func (t *Tracer) Enabled() bool { return t != nil }

// Start opens a new traced request. The returned request is owned by the
// caller: finish it with Release (after copying any spans needed) to
// recycle its buffers. On a nil tracer Start returns nil, which every
// *Req method accepts.
func (t *Tracer) Start(name string) *Req {
	if t == nil {
		return nil
	}
	r := t.pool.Get().(*Req)
	r.t = t
	r.id = t.ids.Add(1)
	r.name = name
	r.start = time.Now()
	r.clock = nil
	r.spans = r.spans[:0]
	return r
}

// Req is one traced request: a monotonic clock, a request ID, and an
// append-only span tree. Every method is safe on a nil receiver (the
// disabled path) and safe for concurrent use (fan-out workers record
// spans on the same request).
type Req struct {
	t     *Tracer
	id    uint64
	name  string
	start time.Time
	clock func() time.Duration // test hook; nil = time.Since(start)

	mu    sync.Mutex
	spans []Span
}

// ID renders the request's process-unique ID ("r0000002a").
func (r *Req) ID() string {
	if r == nil {
		return ""
	}
	return fmt.Sprintf("r%08x", r.id)
}

// Name reports the request's operation name ("select", "reselect").
func (r *Req) Name() string {
	if r == nil {
		return ""
	}
	return r.name
}

// Now is the request's monotonic clock: the wall-clock offset since the
// request started. Zero on a nil request.
func (r *Req) Now() time.Duration {
	if r == nil {
		return 0
	}
	if r.clock != nil {
		return r.clock()
	}
	return time.Since(r.start)
}

// Elapsed is an alias of Now, named for the call at request completion.
func (r *Req) Elapsed() time.Duration { return r.Now() }

// SetClock replaces the request's clock with a deterministic source —
// a test hook for golden exports; production requests keep the
// monotonic default.
func (r *Req) SetClock(clock func() time.Duration) {
	if r != nil {
		r.clock = clock
	}
}

// Begin opens a span under parent (NoParent for a pipeline phase) and
// returns its ID. On a nil request it returns NoParent, which End and
// EndEvals accept.
func (r *Req) Begin(parent int, name string) int {
	return r.BeginTensor(parent, name, -1)
}

// BeginTensor is Begin with a tensor association (a per-tensor probe
// aggregate span).
func (r *Req) BeginTensor(parent int, name string, tensor int) int {
	if r == nil {
		return NoParent
	}
	now := r.Now()
	r.mu.Lock()
	id := len(r.spans)
	r.spans = append(r.spans, Span{
		ID: id, Parent: parent, Name: name, Tensor: tensor + 1, Start: now, End: now,
	})
	r.mu.Unlock()
	return id
}

// End closes the span.
func (r *Req) End(id int) { r.EndEvals(id, 0) }

// EndEvals closes the span and attributes evals F(S) evaluations to it.
func (r *Req) EndEvals(id int, evals int64) {
	if r == nil || id < 0 {
		return
	}
	now := r.Now()
	r.mu.Lock()
	if id < len(r.spans) {
		r.spans[id].End = now
		r.spans[id].Evals = evals
	}
	r.mu.Unlock()
}

// Add records an already-completed span with explicit bounds — the
// per-worker windows of a parallel fan-out use this, with worker the
// 0-based worker index.
func (r *Req) Add(parent int, name string, worker int, start, end time.Duration, evals int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	id := len(r.spans)
	r.spans = append(r.spans, Span{
		ID: id, Parent: parent, Name: name, Worker: worker + 1,
		Start: start, End: end, Evals: evals,
	})
	r.mu.Unlock()
}

// SpanCount reports how many spans have been recorded.
func (r *Req) SpanCount() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// Spans returns a copy of the recorded spans, safe to retain after
// Release.
func (r *Req) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.spans) == 0 {
		return nil
	}
	return append([]Span(nil), r.spans...)
}

// Release returns the request to its tracer's pool. The caller must not
// touch the request afterwards; retain span data via Spans first.
func (r *Req) Release() {
	if r == nil || r.t == nil {
		return
	}
	t := r.t
	r.t = nil
	t.pool.Put(r)
}

// PhaseDurations sums the top-level (Parent == NoParent) spans by name —
// the per-phase wall-clock breakdown of the request. The map allocates;
// it is meant for completed-request bookkeeping, not the hot path.
func PhaseDurations(spans []Span) map[string]time.Duration {
	out := make(map[string]time.Duration)
	for _, sp := range spans {
		if sp.Parent == NoParent {
			out[sp.Name] += sp.Dur()
		}
	}
	return out
}
