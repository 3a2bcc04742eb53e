package flight

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"espresso/internal/obs"
	"espresso/internal/obs/wtrace"
)

// mkRecord builds a plain OK record with the given id and latency.
func mkRecord(id string, latency time.Duration) Record {
	return Record{
		ID:        id,
		Name:      "select",
		Latency:   latency,
		LatencyUs: float64(latency) / float64(time.Microsecond),
		Outcome:   OutcomeOK,
	}
}

// TestNilRecorder pins the disabled path.
func TestNilRecorder(t *testing.T) {
	var fr *Recorder
	fr.Observe(mkRecord("x", time.Millisecond))
	fr.Complete(nil, "fp", 0, time.Millisecond, OutcomeOK, nil)
	if fr.Total() != 0 || fr.AnomalyCount() != 0 {
		t.Fatal("nil recorder retained state")
	}
	if fr.Records() != nil || fr.Anomalies() != nil {
		t.Fatal("nil recorder returned records")
	}
	if _, ok := fr.Get("x"); ok {
		t.Fatal("nil recorder resolved an ID")
	}
	if d := fr.Snapshot(); d.Total != 0 {
		t.Fatal("nil recorder snapshot non-empty")
	}
}

// TestRecentRingEviction checks the last-N property: after M > N
// observations the recent ring holds exactly the newest N, oldest
// evicted first.
func TestRecentRingEviction(t *testing.T) {
	const total = recentCap + 100
	fr := New(Config{})
	for i := 0; i < total; i++ {
		fr.Observe(mkRecord(fmt.Sprintf("r%d", i), time.Millisecond))
	}
	if fr.Total() != total {
		t.Fatalf("Total = %d", fr.Total())
	}
	// The newest recentCap must be retained via the recent ring; older
	// records can survive only via the reservoir.
	for i := total - recentCap; i < total; i++ {
		if _, ok := fr.Get(fmt.Sprintf("r%d", i)); !ok {
			t.Fatalf("recent record r%d evicted early", i)
		}
	}
	retained := 0
	for i := 0; i < total-recentCap; i++ {
		if _, ok := fr.Get(fmt.Sprintf("r%d", i)); ok {
			retained++
		}
	}
	if retained > sampleSize {
		t.Fatalf("%d old records retained, reservoir admits at most %d", retained, sampleSize)
	}
}

// TestErrorAlwaysAnomalous checks unconditional anomaly capture for
// errors and reselects, and that sustained normal traffic cannot evict
// them from the anomaly ring.
func TestErrorAlwaysAnomalous(t *testing.T) {
	fr := New(Config{})
	errRec := mkRecord("boom", time.Millisecond)
	errRec.Outcome = OutcomeError
	errRec.Err = "synthetic"
	fr.Observe(errRec)

	reRec := mkRecord("resel", time.Millisecond)
	reRec.Outcome = OutcomeReselect
	fr.Observe(reRec)

	// Flood with normal traffic far past every ring size.
	for i := 0; i < 10*recentCap; i++ {
		fr.Observe(mkRecord(fmt.Sprintf("n%d", i), time.Millisecond))
	}

	if fr.AnomalyCount() != 2 {
		t.Fatalf("AnomalyCount = %d, want 2", fr.AnomalyCount())
	}
	// Newest first, read from the anomaly ring itself: the reservoir
	// may or may not still hold these two.
	anoms := fr.Anomalies()
	if len(anoms) != 2 || anoms[0].ID != "resel" || anoms[1].ID != "boom" {
		t.Fatalf("anomaly ring after the flood = %+v, want [resel boom]", anoms)
	}
	if got := anoms[1]; !got.Anomaly || got.AnomalyReason != "error" {
		t.Fatalf("error record classified %q", got.AnomalyReason)
	}
	if got := anoms[0]; !got.Anomaly || got.AnomalyReason != "reselect" {
		t.Fatalf("reselect record classified %q", got.AnomalyReason)
	}

	// Only newer anomalies displace them, oldest first.
	for i := 0; i < anomalyCap-1; i++ {
		rec := mkRecord(fmt.Sprintf("e%d", i), time.Millisecond)
		rec.Outcome = OutcomeError
		fr.Observe(rec)
	}
	anoms = fr.Anomalies()
	if len(anoms) != anomalyCap || anoms[len(anoms)-1].ID != "resel" {
		t.Fatalf("anomaly ring holds %d records ending at %s, want %d ending at resel (boom evicted)",
			len(anoms), anoms[len(anoms)-1].ID, anomalyCap)
	}
}

// TestLatencyAnomaly checks the EWMA threshold: steady traffic is
// normal; a k×-slower outlier after warmup is an anomaly, judged against
// the pre-outlier EWMA.
func TestLatencyAnomaly(t *testing.T) {
	fr := New(Config{})
	for i := 0; i < warmup+4; i++ {
		fr.Observe(mkRecord(fmt.Sprintf("s%d", i), time.Millisecond))
	}
	if fr.AnomalyCount() != 0 {
		t.Fatalf("steady traffic produced %d anomalies", fr.AnomalyCount())
	}
	fr.Observe(mkRecord("slow", 10*time.Millisecond))
	if fr.AnomalyCount() != 1 {
		t.Fatalf("10x outlier not flagged (count %d)", fr.AnomalyCount())
	}
	got, _ := fr.Get("slow")
	if !strings.Contains(got.AnomalyReason, "ewma") {
		t.Fatalf("outlier reason = %q", got.AnomalyReason)
	}
	// The outlier must not have poisoned the bar for its successors.
	fr.Observe(mkRecord("after", time.Millisecond))
	if fr.AnomalyCount() != 1 {
		t.Fatal("normal record after outlier flagged")
	}
}

// TestWarmupSuppression checks that the latency threshold stays dark for
// the first warmup records — a cold process's slow first selections are
// not anomalies — and arms with the next one.
func TestWarmupSuppression(t *testing.T) {
	fr := New(Config{})
	fr.Observe(mkRecord("w0", time.Millisecond))
	for i := 1; i < warmup; i++ {
		fr.Observe(mkRecord(fmt.Sprintf("w%d", i), time.Duration(100*i)*time.Millisecond))
	}
	if fr.AnomalyCount() != 0 {
		t.Fatalf("warmup traffic produced %d anomalies", fr.AnomalyCount())
	}
	fr.Observe(mkRecord("armed", time.Hour))
	if fr.AnomalyCount() != 1 {
		t.Fatalf("first record past warmup not judged (count %d)", fr.AnomalyCount())
	}
}

// TestSeededReservoirDeterminism replays the same stream into two
// recorders and requires identical reservoirs, then checks that the
// reservoir really is a function of the RNG state: a different seed
// diverges.
func TestSeededReservoirDeterminism(t *testing.T) {
	run := func(rng uint64) []string {
		fr := New(Config{})
		fr.rng = rng
		for i := 0; i < 500; i++ {
			fr.Observe(mkRecord(fmt.Sprintf("r%d", i), time.Millisecond))
		}
		fr.mu.Lock()
		defer fr.mu.Unlock()
		ids := make([]string, len(fr.sample))
		for i, r := range fr.sample {
			ids[i] = r.ID
		}
		return ids
	}
	a, b := run(seed), run(seed)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("same seed diverged:\n%v\n%v", a, b)
	}
	if len(a) != sampleSize {
		t.Fatalf("reservoir holds %d records, want %d", len(a), sampleSize)
	}
	if fmt.Sprint(a) == fmt.Sprint(run(seed+7)) {
		t.Fatal("different seeds produced identical reservoirs")
	}
}

// TestUntracedIDAssignment checks that untraced records get recorder-
// assigned IDs and stay retrievable.
func TestUntracedIDAssignment(t *testing.T) {
	fr := New(Config{})
	fr.Complete(nil, "fp-1", 12, time.Millisecond, OutcomeOK, nil)
	recs := fr.Records()
	if len(recs) != 1 {
		t.Fatalf("got %d records", len(recs))
	}
	if recs[0].ID == "" {
		t.Fatal("untraced record has empty ID")
	}
	if _, ok := fr.Get(recs[0].ID); !ok {
		t.Fatal("assigned ID not resolvable")
	}
	if recs[0].Fingerprint != "fp-1" || recs[0].Evals != 12 {
		t.Fatalf("record = %+v", recs[0])
	}
}

// TestCompleteFromTracedRequest checks the span tree and phase breakdown
// land in the record.
func TestCompleteFromTracedRequest(t *testing.T) {
	tr := wtrace.New()
	req := tr.Start("select")
	var now time.Duration
	req.SetClock(func() time.Duration { return now })
	sp := req.Begin(wtrace.NoParent, "seed")
	now = 3 * time.Millisecond
	req.EndEvals(sp, 5)

	fr := New(Config{})
	fr.Complete(req, "case-a", 5, 4*time.Millisecond, OutcomeOK, nil)
	id := req.ID()
	req.Release()

	rec, ok := fr.Get(id)
	if !ok {
		t.Fatalf("record %s not retained", id)
	}
	if len(rec.Spans) != 1 || rec.Spans[0].Name != "seed" {
		t.Fatalf("spans = %+v", rec.Spans)
	}
	if rec.Phases["seed"] != 3*time.Millisecond {
		t.Fatalf("phases = %v", rec.Phases)
	}
}

// TestSnapshotJSON checks the dump is well-formed JSON with the counters
// and both record lists.
func TestSnapshotJSON(t *testing.T) {
	m := obs.NewMetrics()
	fr := New(Config{Metrics: m})
	errRec := mkRecord("bad", time.Millisecond)
	errRec.Outcome = OutcomeError
	fr.Observe(errRec)
	fr.Observe(mkRecord("good", time.Millisecond))

	var buf bytes.Buffer
	if err := fr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var d Dump
	if err := json.Unmarshal(buf.Bytes(), &d); err != nil {
		t.Fatalf("dump is not JSON: %v", err)
	}
	if d.Total != 2 || d.AnomalyTotal != 1 {
		t.Fatalf("dump counters: %+v", d)
	}
	if len(d.Records) != 2 || len(d.Anomalies) != 1 {
		t.Fatalf("dump lists: %d records, %d anomalies", len(d.Records), len(d.Anomalies))
	}

	// The metrics registry carries the counters too.
	var prom bytes.Buffer
	obs.SampleRuntime(m)
	if err := m.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	for _, series := range []string{"flight_records_total 2", "flight_anomalies_total 1"} {
		if !strings.Contains(prom.String(), series) {
			t.Fatalf("prometheus export missing %q:\n%s", series, prom.String())
		}
	}
}

// TestRecordsNewestFirst checks listing order and dedup across rings.
func TestRecordsNewestFirst(t *testing.T) {
	fr := New(Config{})
	base := time.Now()
	for i := 0; i < 5; i++ {
		rec := mkRecord(fmt.Sprintf("r%d", i), time.Millisecond)
		rec.Start = base.Add(time.Duration(i) * time.Second)
		if i == 2 {
			rec.Outcome = OutcomeError // lives in both rings; must list once
		}
		fr.Observe(rec)
	}
	recs := fr.Records()
	if len(recs) != 5 {
		t.Fatalf("got %d records, want 5 (dedup failed?)", len(recs))
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].Start.After(recs[i-1].Start) {
			t.Fatalf("records not newest-first at %d", i)
		}
	}
}
