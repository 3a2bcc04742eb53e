// Package flight is an always-on bounded flight recorder for strategy
// selections: it retains the last N completed selection records — each
// with its wtrace request ID, workload fingerprint, phase span tree,
// evaluation counts, and wall-clock latency — plus every recent anomaly
// unconditionally, plus a seeded reservoir sample of the whole run, so
// the one slow request out of a million is still retrievable minutes
// later from /debug/flight without ever having turned on a debug flag.
//
// A record is an anomaly when its outcome is an error, when it was a
// Monitor-triggered re-selection (internal/chaos), or when its latency
// exceeded three times the recorder's running EWMA of selection
// latency. Anomalies live in their own ring so sustained normal traffic
// cannot evict them; normal records rotate through the recent ring and
// are additionally kept with reservoir probability in the sample ring,
// which stays uniform over the whole run (seeded, so a replayed run
// keeps the same records).
package flight

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"espresso/internal/obs"
	"espresso/internal/obs/wtrace"
	"espresso/internal/splitmix"
)

// Outcome classifies how a selection ended.
type Outcome string

const (
	// OutcomeOK is a successful routine selection.
	OutcomeOK Outcome = "ok"
	// OutcomeError is a failed selection.
	OutcomeError Outcome = "error"
	// OutcomeReselect is a Monitor-triggered re-selection on a degraded
	// topology — always captured as an anomaly.
	OutcomeReselect Outcome = "reselect"
	// OutcomeReconfig is an elastic-membership reconfiguration (a rank
	// left or rejoined) — always captured as an anomaly.
	OutcomeReconfig Outcome = "reconfig"
)

// The recorder's bounds and thresholds.
const (
	recentCap  = 64 // recent ring size
	anomalyCap = 32 // anomaly ring size
	sampleSize = 16 // reservoir size
	seed       = 1  // reservoir RNG seed
	// latencyFactor is the slow-request threshold k: a record is
	// anomalous when its latency exceeds k times the running EWMA, whose
	// smoothing factor is ewmaAlpha.
	latencyFactor = 3.0
	ewmaAlpha     = 0.05
	// warmup is how many records must complete before the latency
	// threshold arms — the first requests of a cold process are all slow
	// and would otherwise spam the anomaly ring.
	warmup = 16
)

// Config configures a recorder.
type Config struct {
	// Metrics optionally receives the recorder's live series: the
	// flight.anomalies counter and per-phase select.phase.<name>.wall_seconds
	// histograms fed from each record's top-level spans.
	Metrics *obs.Metrics
}

// Record is one completed selection.
type Record struct {
	// ID is the wtrace request ID (or a recorder-assigned one when the
	// request ran untraced).
	ID string `json:"id"`
	// Name is the request's operation ("select", "reselect").
	Name string `json:"name"`
	// Fingerprint identifies the workload (the generated case's compact
	// form, a job name, ...).
	Fingerprint string `json:"fingerprint,omitempty"`
	// Start is the request's wall-clock start time.
	Start time.Time `json:"start"`
	// Latency is the end-to-end wall-clock time of the request.
	Latency time.Duration `json:"latency_ns"`
	// LatencyUs duplicates Latency in microseconds for human eyes.
	LatencyUs float64 `json:"latency_us"`
	// Evals counts the F(S) timeline evaluations the request performed.
	Evals int64 `json:"evals"`
	// Outcome classifies the completion; Err carries the error text.
	Outcome Outcome `json:"outcome"`
	Err     string  `json:"err,omitempty"`
	// Anomaly marks the record as unconditionally retained, with the
	// reason ("error", "reselect", "latency 5.2x ewma").
	Anomaly       bool   `json:"anomaly,omitempty"`
	AnomalyReason string `json:"anomaly_reason,omitempty"`
	// Spans is the request's phase span tree (empty when untraced).
	Spans []wtrace.Span `json:"spans,omitempty"`
	// Phases sums the top-level spans by name — the per-phase wall-clock
	// breakdown whose total should land within a few percent of Latency.
	Phases map[string]time.Duration `json:"phases_ns,omitempty"`
}

// Summary is the listing form of a record — everything but the span
// tree.
type Summary struct {
	ID            string    `json:"id"`
	Name          string    `json:"name"`
	Fingerprint   string    `json:"fingerprint,omitempty"`
	Start         time.Time `json:"start"`
	LatencyUs     float64   `json:"latency_us"`
	Evals         int64     `json:"evals"`
	Outcome       Outcome   `json:"outcome"`
	Anomaly       bool      `json:"anomaly,omitempty"`
	AnomalyReason string    `json:"anomaly_reason,omitempty"`
	Spans         int       `json:"spans"`
}

func (r Record) summary() Summary {
	return Summary{
		ID: r.ID, Name: r.Name, Fingerprint: r.Fingerprint, Start: r.Start,
		LatencyUs: r.LatencyUs, Evals: r.Evals, Outcome: r.Outcome,
		Anomaly: r.Anomaly, AnomalyReason: r.AnomalyReason, Spans: len(r.Spans),
	}
}

// NewRecord assembles a record from a completed traced request. req may
// be nil (untraced); the record then has no span tree and an empty ID,
// which Observe replaces with a recorder-assigned one.
func NewRecord(req *wtrace.Req, fingerprint string, evals int64, latency time.Duration, outcome Outcome, err error) Record {
	rec := Record{
		ID:          req.ID(),
		Name:        req.Name(),
		Fingerprint: fingerprint,
		Start:       time.Now().Add(-latency),
		Latency:     latency,
		LatencyUs:   float64(latency) / float64(time.Microsecond),
		Evals:       evals,
		Outcome:     outcome,
	}
	if err != nil {
		rec.Err = err.Error()
	}
	if spans := req.Spans(); len(spans) > 0 {
		rec.Spans = spans
		rec.Phases = wtrace.PhaseDurations(spans)
	}
	return rec
}

// Recorder is the flight recorder. All methods are safe for concurrent
// use; a nil *Recorder is the disabled state (Observe no-ops).
type Recorder struct {
	metrics *obs.Metrics

	anomalies atomic.Int64 // all-time anomaly count
	total     atomic.Int64 // all-time completed count

	mu     sync.Mutex
	rng    uint64 // splitmix.Rand state for the reservoir; tests seed it as a uint64
	ewmaUs float64
	ids    uint64 // fallback IDs for untraced records

	recent     []Record // ring, recentN oldest-first from recentHead
	recentHead int
	recentN    int

	anomRing []Record
	anomHead int
	anomN    int

	sample []Record // reservoir over all completed records
}

// New builds a recorder. When cfg.Metrics is set, the flight.anomalies
// counter is registered eagerly so the series exists from the first
// scrape.
func New(cfg Config) *Recorder {
	fr := &Recorder{
		metrics:  cfg.Metrics,
		rng:      seed,
		recent:   make([]Record, recentCap),
		anomRing: make([]Record, anomalyCap),
		sample:   make([]Record, 0, sampleSize),
	}
	if cfg.Metrics != nil {
		cfg.Metrics.Counter("flight.anomalies")
		cfg.Metrics.Counter("flight.records")
	}
	return fr
}

// Observe classifies and admits one completed record. Safe on a nil
// recorder.
func (fr *Recorder) Observe(rec Record) {
	if fr == nil {
		return
	}
	fr.mu.Lock()
	if rec.ID == "" {
		fr.ids++
		rec.ID = fmt.Sprintf("u%08x", fr.ids)
	}
	n := fr.total.Add(1)

	// Classify against the pre-update EWMA, then fold the latency in —
	// a slow outlier must not raise the bar it is judged against.
	latUs := rec.LatencyUs
	switch {
	case rec.Outcome == OutcomeError:
		rec.Anomaly, rec.AnomalyReason = true, "error"
	case rec.Outcome == OutcomeReselect:
		rec.Anomaly, rec.AnomalyReason = true, "reselect"
	case rec.Outcome == OutcomeReconfig:
		rec.Anomaly, rec.AnomalyReason = true, "reconfig"
	case n > warmup && fr.ewmaUs > 0 && latUs > latencyFactor*fr.ewmaUs:
		rec.Anomaly = true
		rec.AnomalyReason = fmt.Sprintf("latency %.1fx ewma (%.0fµs vs %.0fµs)", latUs/fr.ewmaUs, latUs, fr.ewmaUs)
	}
	if fr.ewmaUs == 0 {
		fr.ewmaUs = latUs
	} else {
		fr.ewmaUs += ewmaAlpha * (latUs - fr.ewmaUs)
	}

	// Recent ring: every completion, oldest evicted first.
	i := (fr.recentHead + fr.recentN) % len(fr.recent)
	fr.recent[i] = rec
	if fr.recentN < len(fr.recent) {
		fr.recentN++
	} else {
		fr.recentHead = (fr.recentHead + 1) % len(fr.recent)
	}

	// Anomaly ring: unconditional capture, displaced only by newer
	// anomalies.
	if rec.Anomaly {
		fr.anomalies.Add(1)
		j := (fr.anomHead + fr.anomN) % len(fr.anomRing)
		fr.anomRing[j] = rec
		if fr.anomN < len(fr.anomRing) {
			fr.anomN++
		} else {
			fr.anomHead = (fr.anomHead + 1) % len(fr.anomRing)
		}
	}

	// Seeded reservoir over all completions (Algorithm R).
	if len(fr.sample) < cap(fr.sample) {
		fr.sample = append(fr.sample, rec)
	} else if k := (*splitmix.Rand)(&fr.rng).Intn(int(n)); k < len(fr.sample) {
		fr.sample[k] = rec
	}
	fr.mu.Unlock()

	if m := fr.metrics; m != nil {
		m.Counter("flight.records").Inc()
		if rec.Anomaly {
			m.Counter("flight.anomalies").Inc()
		}
		for name, d := range rec.Phases {
			m.Histogram("select.phase."+name+".wall_seconds", obs.SecondsBuckets...).Observe(d.Seconds())
		}
	}
}

// Complete is the one-call completion path: it assembles the record from
// the traced request (NewRecord) and admits it. It does not release the
// request; the caller owns that.
func (fr *Recorder) Complete(req *wtrace.Req, fingerprint string, evals int64, latency time.Duration, outcome Outcome, err error) {
	if fr == nil {
		return
	}
	fr.Observe(NewRecord(req, fingerprint, evals, latency, outcome, err))
}

// Total reports how many records have ever been observed.
func (fr *Recorder) Total() int64 {
	if fr == nil {
		return 0
	}
	return fr.total.Load()
}

// AnomalyCount reports how many anomalies have ever been observed.
func (fr *Recorder) AnomalyCount() int64 {
	if fr == nil {
		return 0
	}
	return fr.anomalies.Load()
}

// ring reads a ring's records oldest-first.
func ringSlice(ring []Record, head, n int) []Record {
	out := make([]Record, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, ring[(head+i)%len(ring)])
	}
	return out
}

// Records returns every retained record, deduplicated by ID and sorted
// newest-first.
func (fr *Recorder) Records() []Record {
	if fr == nil {
		return nil
	}
	fr.mu.Lock()
	all := ringSlice(fr.recent, fr.recentHead, fr.recentN)
	all = append(all, ringSlice(fr.anomRing, fr.anomHead, fr.anomN)...)
	all = append(all, fr.sample...)
	fr.mu.Unlock()

	seen := make(map[string]bool, len(all))
	out := all[:0]
	for _, r := range all {
		if !seen[r.ID] {
			seen[r.ID] = true
			out = append(out, r)
		}
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].Start.After(out[b].Start) })
	return out
}

// Anomalies returns the retained anomaly records, newest-first.
func (fr *Recorder) Anomalies() []Record {
	if fr == nil {
		return nil
	}
	fr.mu.Lock()
	out := ringSlice(fr.anomRing, fr.anomHead, fr.anomN)
	fr.mu.Unlock()
	for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// Get retrieves one retained record by ID.
func (fr *Recorder) Get(id string) (Record, bool) {
	if fr == nil {
		return Record{}, false
	}
	fr.mu.Lock()
	defer fr.mu.Unlock()
	for i := fr.recentN - 1; i >= 0; i-- {
		if r := fr.recent[(fr.recentHead+i)%len(fr.recent)]; r.ID == id {
			return r, true
		}
	}
	for i := fr.anomN - 1; i >= 0; i-- {
		if r := fr.anomRing[(fr.anomHead+i)%len(fr.anomRing)]; r.ID == id {
			return r, true
		}
	}
	for _, r := range fr.sample {
		if r.ID == id {
			return r, true
		}
	}
	return Record{}, false
}

// Dump is the recorder's JSON export: configuration echo, counters, the
// running EWMA, and every retained record (summaries plus the full
// anomaly records).
type Dump struct {
	Capacity        int     `json:"capacity"`
	AnomalyCapacity int     `json:"anomaly_capacity"`
	SampleSize      int     `json:"sample_size"`
	LatencyFactor   float64 `json:"latency_factor"`
	Total           int64   `json:"total"`
	AnomalyTotal    int64   `json:"anomaly_total"`
	EWMAUs          float64 `json:"ewma_us"`

	Records   []Summary `json:"records"`
	Anomalies []Record  `json:"anomalies"`
}

// Snapshot assembles the dump.
func (fr *Recorder) Snapshot() Dump {
	if fr == nil {
		return Dump{}
	}
	fr.mu.Lock()
	ewma := fr.ewmaUs
	fr.mu.Unlock()
	d := Dump{
		Capacity:        recentCap,
		AnomalyCapacity: anomalyCap,
		SampleSize:      sampleSize,
		LatencyFactor:   latencyFactor,
		Total:           fr.Total(),
		AnomalyTotal:    fr.AnomalyCount(),
		EWMAUs:          ewma,
		Anomalies:       fr.Anomalies(),
	}
	for _, r := range fr.Records() {
		d.Records = append(d.Records, r.summary())
	}
	return d
}

// WriteJSON writes the dump with stable indentation.
func (fr *Recorder) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(fr.Snapshot())
}
