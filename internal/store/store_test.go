package store

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func open(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s
}

func TestJobLifecyclePersists(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir)
	j, err := s.CreateJob("chaos", json.RawMessage(`{"seed":7}`))
	if err != nil {
		t.Fatalf("CreateJob: %v", err)
	}
	if j.ID != "job-000001" || j.State != JobQueued {
		t.Fatalf("unexpected created job: %+v", j)
	}
	id, err := s.ReserveReportID()
	if err != nil || id != "rep-000001" {
		t.Fatalf("ReserveReportID = %q, %v", id, err)
	}
	rep, err := s.PutReportWithID(id, "chaos", 7, json.RawMessage(`{"x":1}`))
	if err != nil {
		t.Fatalf("PutReportWithID: %v", err)
	}
	if rep.ID != id || rep.Seq != 1 {
		t.Fatalf("unexpected report row %+v", rep)
	}
	if err := s.SetJobState(j.ID, JobSucceeded, "", rep.ID); err != nil {
		t.Fatalf("SetJobState: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2 := open(t, dir)
	defer s2.Close()
	got, ok := s2.Job(j.ID)
	if !ok || got.State != JobSucceeded || got.ReportID != rep.ID {
		t.Fatalf("job did not survive restart: %+v ok=%v", got, ok)
	}
	r2, ok := s2.Report(rep.ID)
	if !ok || string(r2.Body) != `{"x":1}` || r2.Seed != 7 {
		t.Fatalf("report did not survive restart: %+v ok=%v", r2, ok)
	}
	if n := len(s2.Recovered()); n != 0 {
		t.Fatalf("clean shutdown recovered %d jobs", n)
	}
}

// TestCrashRecoveryMarksRunningJobsFailed is the core durability
// contract: a store abandoned (crash-simulated) with queued and running
// jobs reopens with both marked failed, and the terminal job untouched.
func TestCrashRecoveryMarksRunningJobsFailed(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir)
	j1, _ := s.CreateJob("chaos", json.RawMessage(`{}`))
	j2, _ := s.CreateJob("verify", json.RawMessage(`{}`))
	j3, _ := s.CreateJob("chaos", json.RawMessage(`{}`))
	if err := s.SetJobState(j1.ID, JobRunning, "", ""); err != nil {
		t.Fatal(err)
	}
	if err := s.SetJobState(j3.ID, JobCanceled, "by operator", ""); err != nil {
		t.Fatal(err)
	}
	// An ID reserved but never written must not be reissued after the
	// crash: the reservation lives only in the WAL's counter record.
	if id, err := s.ReserveReportID(); err != nil || id != "rep-000001" {
		t.Fatalf("ReserveReportID = %q, %v", id, err)
	}
	if err := s.Abandon(); err != nil {
		t.Fatalf("Abandon: %v", err)
	}

	s2 := open(t, dir)
	defer s2.Close()
	rec := s2.Recovered()
	if len(rec) != 2 || rec[0] != j1.ID || rec[1] != j2.ID {
		t.Fatalf("Recovered() = %v, want [%s %s]", rec, j1.ID, j2.ID)
	}
	for _, id := range []string{j1.ID, j2.ID} {
		j, _ := s2.Job(id)
		if j.State != JobFailed || j.Error != "interrupted by server restart" {
			t.Fatalf("job %s = %+v, want failed/interrupted", id, j)
		}
	}
	if j, _ := s2.Job(j3.ID); j.State != JobCanceled || j.Error != "by operator" {
		t.Fatalf("terminal job perturbed by recovery: %+v", j)
	}
	if id, err := s2.ReserveReportID(); err != nil || id != "rep-000002" {
		t.Fatalf("ReserveReportID after crash = %q, %v, want rep-000002", id, err)
	}

	// Recovery itself must be durable: a third open sees no
	// non-terminal jobs left.
	s2.Abandon()
	s3 := open(t, dir)
	defer s3.Close()
	if n := len(s3.Recovered()); n != 0 {
		t.Fatalf("recovery was not persisted: %d jobs re-recovered", n)
	}
}

// TestTornTailRepaired simulates a crash mid-append: a WAL whose final
// frame is truncated replays every intact record and drops the tail.
func TestTornTailRepaired(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir)
	s.CreateJob("chaos", json.RawMessage(`{"a":1}`))
	s.CreateJob("chaos", json.RawMessage(`{"a":2}`))
	if err := s.Abandon(); err != nil {
		t.Fatal(err)
	}

	walPath := filepath.Join(dir, walFile)
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(walPath, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := open(t, dir)
	defer s2.Close()
	jobs := s2.Jobs()
	// Job 2's record was torn; job 1 survives, and recovery marks it
	// failed. The torn job is gone entirely — exactly what a crash
	// before the fsync returned would mean.
	if len(jobs) != 1 || jobs[0].ID != "job-000001" || jobs[0].State != JobFailed {
		t.Fatalf("after torn tail: %+v", jobs)
	}
}

// TestCorruptRecordStopsReplay: a frame whose CRC does not match is the
// torn-tail case too — replay keeps everything before it.
func TestCorruptRecordStopsReplay(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir)
	s.CreateJob("chaos", json.RawMessage(`{"a":1}`))
	if err := s.Abandon(); err != nil {
		t.Fatal(err)
	}

	// Append a frame with a bad CRC by hand.
	payload := []byte(`{"job":{"id":"job-000009","kind":"x","state":"queued","seq":9}}`)
	frame := make([]byte, 8+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload)^0xdeadbeef)
	copy(frame[8:], payload)
	f, err := os.OpenFile(filepath.Join(dir, walFile), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write(frame)
	f.Close()

	s2 := open(t, dir)
	defer s2.Close()
	if _, ok := s2.Job("job-000009"); ok {
		t.Fatal("corrupt record was applied")
	}
	if _, ok := s2.Job("job-000001"); !ok {
		t.Fatal("intact prefix lost")
	}
}

// TestCheckpointCompactsWAL: after Checkpoint the WAL is empty and the
// image still round-trips through a reopen.
func TestCheckpointCompactsWAL(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir)
	for i := 0; i < 10; i++ {
		s.CreateJob("chaos", json.RawMessage(`{}`))
	}
	id, err := s.ReserveReportID()
	if err != nil {
		t.Fatalf("ReserveReportID: %v", err)
	}
	if _, err := s.PutReportWithID(id, "select", 3, json.RawMessage(`{"r":true}`)); err != nil {
		t.Fatalf("PutReportWithID: %v", err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	fi, err := os.Stat(filepath.Join(dir, walFile))
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != 0 {
		t.Fatalf("wal not truncated: %d bytes", fi.Size())
	}
	s.Abandon()

	s2 := open(t, dir)
	defer s2.Close()
	if got := len(s2.Jobs()); got != 10 {
		t.Fatalf("jobs after checkpointed reopen = %d, want 10", got)
	}
	if _, ok := s2.Report("rep-000001"); !ok {
		t.Fatal("report lost across checkpoint")
	}
	// IDs keep advancing from the snapshot counters.
	j, _ := s2.CreateJob("chaos", nil)
	if j.ID != "job-000011" {
		t.Fatalf("counter did not survive checkpoint: %s", j.ID)
	}
}

// TestMigrateV1 builds a schema-1 directory by hand (reports without the
// Kind column) and asserts Open backfills kind=select, checkpoints, and
// stamps the manifest at the current version.
func TestMigrateV1(t *testing.T) {
	dir := t.TempDir()
	snap := map[string]any{
		"schema":      1,
		"next_job":    1,
		"next_report": 1,
		"jobs": []map[string]any{{
			"id": "job-000001", "kind": "chaos", "state": "succeeded",
			"report_id": "rep-000001", "seq": 1,
		}},
		"reports": []map[string]any{{
			"id": "rep-000001", "seed": 5, "body": map[string]any{"iter_ns": 1}, "seq": 1,
		}},
	}
	data, _ := json.Marshal(snap)
	if err := os.WriteFile(filepath.Join(dir, snapshotFile), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, manifestFile), []byte(`{"schema":1}`), 0o644); err != nil {
		t.Fatal(err)
	}

	s := open(t, dir)
	defer s.Close()
	r, ok := s.Report("rep-000001")
	if !ok || r.Kind != "select" {
		t.Fatalf("v1 report not migrated: %+v ok=%v", r, ok)
	}
	var m manifest
	mdata, err := os.ReadFile(filepath.Join(dir, manifestFile))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(mdata, &m); err != nil {
		t.Fatal(err)
	}
	if m.Schema != schemaVersion {
		t.Fatalf("manifest not stamped: schema %d", m.Schema)
	}
}

// TestRefusesNewerSchema: a directory written by a future build is
// rejected rather than silently rewritten.
func TestRefusesNewerSchema(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, manifestFile), []byte(`{"schema":99}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{NoSync: true}); err == nil {
		t.Fatal("Open accepted a schema-99 directory")
	}
}

// TestConcurrentWriters hammers the store from many goroutines; the race
// detector guards the locking, and the final image must hold every row.
func TestConcurrentWriters(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir)
	const writers, each = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				j, err := s.CreateJob("chaos", json.RawMessage(fmt.Sprintf(`{"w":%d,"i":%d}`, w, i)))
				if err != nil {
					t.Errorf("CreateJob: %v", err)
					return
				}
				if err := s.SetJobState(j.ID, JobSucceeded, "", ""); err != nil {
					t.Errorf("SetJobState: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if got := len(s.Jobs()); got != writers*each {
		t.Fatalf("jobs = %d, want %d", got, writers*each)
	}
	s.Close()

	s2 := open(t, dir)
	defer s2.Close()
	if got := len(s2.Jobs()); got != writers*each {
		t.Fatalf("jobs after reopen = %d, want %d", got, writers*each)
	}
	for _, j := range s2.Jobs() {
		if j.State != JobSucceeded {
			t.Fatalf("job %s state %s after clean shutdown", j.ID, j.State)
		}
	}
}

func TestClosedStoreRejectsMutations(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir)
	s.Close()
	if _, err := s.CreateJob("chaos", nil); err != ErrClosed {
		t.Fatalf("CreateJob on closed store: %v", err)
	}
	if _, err := s.ReserveReportID(); err != ErrClosed {
		t.Fatalf("ReserveReportID on closed store: %v", err)
	}
	if _, err := s.PutReportWithID("rep-000001", "select", 1, nil); err != ErrClosed {
		t.Fatalf("PutReportWithID on closed store: %v", err)
	}
}

// A report ID is accepted only as ReserveReportID spells it: any other
// spelling of the same sequence number would put a second row with that
// Seq beside the real one, and listings would order them arbitrarily.
func TestPutReportRejectsMalformedIDs(t *testing.T) {
	s := open(t, t.TempDir())
	defer s.Close()
	id, err := s.ReserveReportID()
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"rep-7x", "rep- 7", "rep-7 8", "rep-+7", "rep-7", "rep-0000001", "rep-", "rep--1", "job-000001", "000001", ""} {
		if _, err := s.PutReportWithID(bad, "select", 1, nil); err == nil || err.Error() != fmt.Sprintf("store: malformed report ID %q", bad) {
			t.Errorf("PutReportWithID(%q) = %v, want the malformed-ID error", bad, err)
		}
	}
	if len(s.Reports()) != 0 {
		t.Fatalf("malformed IDs stored %d rows", len(s.Reports()))
	}
	rep, err := s.PutReportWithID(id, "select", 1, json.RawMessage(`{}`))
	if err != nil || rep.ID != id || rep.Seq != 1 {
		t.Fatalf("reserved ID %q: row %+v, %v", id, rep, err)
	}
	if got := rowID("rep-", 1234567); got != "rep-1234567" {
		t.Errorf("seven-digit sequence number formats as %q", got)
	}
	if _, err := s.PutReportWithID("rep-1234567", "select", 1, nil); err != nil {
		t.Errorf("seven-digit report ID rejected: %v", err)
	}
}
