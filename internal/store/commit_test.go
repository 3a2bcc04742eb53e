package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// putReport reserves an ID and persists body under it, as the service
// does for every report.
func putReport(s *Store, body string) (string, error) {
	id, err := s.ReserveReportID()
	if err != nil {
		return "", err
	}
	_, err = s.PutReportWithID(id, "select", 1, json.RawMessage(body))
	return id, err
}

// Writers in flight share syncs: every call returns with its row durable
// and readable, IDs stay distinct, and the disk sees fewer syncs than
// there were puts.
func TestGroupCommitSharesSyncs(t *testing.T) {
	var syncs atomic.Int64
	setSyncFile(t, func(f *os.File) error {
		syncs.Add(1)
		time.Sleep(200 * time.Microsecond) // a disk slower than an append
		return f.Sync()
	})
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	writers, each := 2*runtime.GOMAXPROCS(0), 50
	bodies := make([]map[string]string, writers)
	var wg sync.WaitGroup
	for w := range bodies {
		bodies[w] = map[string]string{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				body := fmt.Sprintf(`{"w":%d,"i":%d}`, w, i)
				id, err := putReport(s, body)
				if err != nil {
					t.Errorf("writer %d put %d: %v", w, i, err)
					return
				}
				if r, ok := s.Report(id); !ok || string(r.Body) != body {
					t.Errorf("%s not readable when its put returned: %+v, %v", id, r, ok)
				}
				bodies[w][id] = body
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	want := map[string]string{}
	for _, m := range bodies {
		for id, body := range m {
			if _, dup := want[id]; dup {
				t.Fatalf("report ID %s issued twice", id)
			}
			want[id] = body
		}
	}
	puts := int64(writers * each)
	if n := syncs.Load(); n >= puts {
		t.Errorf("%d syncs for %d puts: no put shared a sync", n, puts)
	}
	if err := s.Abandon(); err != nil {
		t.Fatal(err)
	}

	s2 := open(t, dir)
	defer s2.Close()
	if got := len(s2.Reports()); got != len(want) {
		t.Fatalf("%d reports after a crash, want %d", got, len(want))
	}
	for id, body := range want {
		if r, ok := s2.Report(id); !ok || string(r.Body) != body {
			t.Fatalf("%s after a crash: %+v, %v", id, r, ok)
		}
	}
}

// within runs f and fails the test if it has not returned in time: a
// reader stuck behind a stalled sync fails here instead of hanging.
func within(t *testing.T, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() { defer close(done); f() }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s blocked behind a stalled sync", what)
	}
}

// While a sync is stalled, readers answer from the durable image at
// once, and the row being synced stays invisible until the sync returns.
func TestReadersDoNotWaitForSync(t *testing.T) {
	var stall atomic.Bool
	entered, release := make(chan struct{}), make(chan struct{})
	setSyncFile(t, func(f *os.File) error {
		if stall.CompareAndSwap(true, false) {
			close(entered)
			<-release
		}
		return f.Sync()
	})
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	job, err := s.CreateJob("chaos", json.RawMessage(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	first, err := putReport(s, `{"n":1}`)
	if err != nil {
		t.Fatal(err)
	}

	stall.Store(true)
	second := make(chan error, 1)
	go func() {
		_, err := putReport(s, `{"n":2}`)
		second <- err
	}()
	<-entered
	released := false
	defer func() {
		if !released { // a failed check: unstall, so Close can return
			close(release)
		}
	}()
	within(t, "a reader", func() {
		if _, ok := s.Report(first); !ok {
			t.Errorf("durable report %s not found", first)
		}
		if _, ok := s.Report("rep-000002"); ok {
			t.Error("a report is visible before its sync returned")
		}
		if n := len(s.Reports()); n != 1 {
			t.Errorf("Reports() lists %d rows during the sync, want 1", n)
		}
		if _, ok := s.Job(job.ID); !ok || len(s.Jobs()) != 1 {
			t.Errorf("job %s not listed during an unrelated sync", job.ID)
		}
	})
	select {
	case err := <-second:
		t.Fatalf("put returned (%v) before its sync", err)
	default:
	}
	released = true
	close(release)
	if err := <-second; err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Report("rep-000002"); !ok {
		t.Fatal("report not visible after its put returned")
	}
}

// A failed sync fails every call it covered; the store then refuses
// every mutation with that error and never syncs the file again.
func TestSyncFailurePoisonsStore(t *testing.T) {
	const (
		pass = iota
		stall
		fail
	)
	boom := errors.New("disk on fire")
	var mode atomic.Int32
	var syncs atomic.Int64
	entered, release := make(chan struct{}), make(chan struct{})
	setSyncFile(t, func(f *os.File) error {
		syncs.Add(1)
		switch mode.Load() {
		case stall:
			mode.Store(pass)
			close(entered)
			<-release
		case fail:
			return boom
		}
		return f.Sync()
	})
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	job, err := s.CreateJob("chaos", json.RawMessage(`{}`))
	if err != nil {
		t.Fatal(err)
	}

	// The first put's sync stalls; two more puts write behind it and
	// wait. The stalled sync then succeeds and the next one, which
	// covers both waiting puts, fails.
	mode.Store(stall)
	first := make(chan error, 1)
	go func() {
		_, err := putReport(s, `{"n":1}`)
		first <- err
	}()
	<-entered
	written := walWritten(s)
	covered := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			_, err := putReport(s, `{"n":2}`)
			covered <- err
		}()
	}
	for deadline := time.Now().Add(10 * time.Second); walWritten(s) < written+4; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the waiting puts never wrote their records")
		}
	}
	mode.Store(fail)
	close(release)
	if err := <-first; err != nil {
		t.Fatalf("put covered by the good sync: %v", err)
	}
	for i := 0; i < 2; i++ {
		if err := <-covered; !errors.Is(err, boom) {
			t.Fatalf("put covered by the failed sync returned %v, want %v", err, boom)
		}
	}
	synced := syncs.Load()

	if n := len(s.Reports()); n != 1 {
		t.Errorf("%d reports visible after the failed sync, want the 1 made durable", n)
	}
	_, err = s.ReserveReportID()
	refused := []error{err}
	_, err = s.CreateJob("chaos", nil)
	refused = append(refused, err)
	refused = append(refused, s.SetJobState(job.ID, JobRunning, "", ""))
	_, err = s.PutReportWithID("rep-000009", "select", 1, nil)
	refused = append(refused, err, s.Checkpoint(), s.Close())
	for i, err := range refused {
		if !errors.Is(err, boom) {
			t.Errorf("call %d after the failed sync returned %v, want %v", i, err, boom)
		}
	}
	if n := syncs.Load(); n != synced {
		t.Errorf("the WAL was synced %d more times after a failed sync", n-synced)
	}

	mode.Store(pass)
	s2 := open(t, dir)
	defer s2.Close()
	if _, ok := s2.Report("rep-000001"); !ok {
		t.Fatal("the report made durable before the failure is gone")
	}
	// The refused state change never happened: the job was still queued,
	// so recovery fails it.
	if rec := s2.Recovered(); len(rec) != 1 || rec[0] != job.ID {
		t.Fatalf("Recovered() = %v, want [%s]", rec, job.ID)
	}
}

// A checkpoint taken while a put waits for its sync waits too, and
// folds that row into the snapshot before truncating the WAL: the put
// returns success, so the row must survive a crash after it.
func TestCheckpointWaitsForWritesInFlight(t *testing.T) {
	var stall atomic.Bool
	entered, release := make(chan struct{}), make(chan struct{})
	setSyncFile(t, func(f *os.File) error {
		if stall.CompareAndSwap(true, false) {
			close(entered)
			<-release
		}
		return f.Sync()
	})
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	stall.Store(true)
	put := make(chan error, 1)
	go func() {
		_, err := putReport(s, `{"n":1}`)
		put <- err
	}()
	<-entered
	checkpoint := make(chan error, 1)
	go func() { checkpoint <- s.Checkpoint() }()
	// Release the sync once the checkpoint is under way: it holds the
	// store's lock (waiting for the sync), or it has already returned.
	for waiting := false; !waiting; {
		select {
		case err := <-checkpoint:
			checkpoint <- err
			waiting = true
		default:
			if waiting = !s.mu.TryLock(); !waiting {
				s.mu.Unlock()
			}
		}
	}
	close(release)
	if err := <-put; err != nil {
		t.Fatal(err)
	}
	if err := <-checkpoint; err != nil {
		t.Fatal(err)
	}
	if err := s.Abandon(); err != nil {
		t.Fatal(err)
	}
	s2 := open(t, dir)
	defer s2.Close()
	if _, ok := s2.Report("rep-000001"); !ok {
		t.Fatal("a put that returned success is gone after checkpoint + crash")
	}
}
