package store

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
)

// image is what a reader sees of a store.
type image struct {
	Jobs    []Job
	Reports []Report
}

func imageOf(s *Store) image { return image{s.Jobs(), s.Reports()} }

// recovered is the image Open makes of im after a crash: every job that
// was not terminal is failed.
func (im image) recovered() image {
	jobs := slices.Clone(im.Jobs)
	for i := range jobs {
		if !jobs[i].State.Terminal() {
			jobs[i].State, jobs[i].Error = JobFailed, "interrupted by server restart"
		}
	}
	return image{jobs, im.Reports}
}

// ackedWAL writes a known list of job and report writes and returns the
// WAL they left, with the image after each acknowledged write (prefixes
// [0] through [len-1], all writes).
func ackedWAL(t *testing.T) ([]byte, []image) {
	t.Helper()
	dir := t.TempDir()
	s := open(t, dir)
	prefixes := []image{imageOf(s)}
	ack := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		prefixes = append(prefixes, imageOf(s))
	}
	j1, err := s.CreateJob("chaos", json.RawMessage(`{"seed":1}`))
	ack(err)
	rep1, err := putReport(s, `{"iter_ns":12}`)
	ack(err)
	ack(s.SetJobState(j1.ID, JobRunning, "", ""))
	j2, err := s.CreateJob("verify", json.RawMessage(`{"cases":3}`))
	ack(err)
	ack(s.SetJobState(j1.ID, JobSucceeded, "", rep1))
	_, err = putReport(s, `{"iter_ns":34}`)
	ack(err)
	ack(s.SetJobState(j2.ID, JobCanceled, "by operator", ""))
	// A reservation whose put never came: it adds no row.
	if _, err := s.ReserveReportID(); err != nil {
		t.Fatal(err)
	}
	if err := s.Abandon(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, walFile))
	if err != nil {
		t.Fatal(err)
	}
	return data, prefixes
}

// A crash can leave the WAL cut short at any byte or, on a bad disk,
// with any bit flipped. Either way Open succeeds and the image is
// exactly a prefix of the acknowledged writes, recovered.
func TestCrashAtEveryByteRecoversAPrefix(t *testing.T) {
	wal, prefixes := ackedWAL(t)
	dir := t.TempDir()
	// reopen replays data as the whole WAL and returns how many
	// acknowledged writes survived.
	reopen := func(data []byte, what string) int {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, walFile), data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir, Options{NoSync: true})
		if err != nil {
			t.Fatalf("%s: Open: %v", what, err)
		}
		got := imageOf(s)
		if err := s.Abandon(); err != nil {
			t.Fatal(err)
		}
		for k := len(prefixes) - 1; k >= 0; k-- {
			if reflect.DeepEqual(got, prefixes[k].recovered()) {
				return k
			}
		}
		t.Fatalf("%s: the image is no prefix of the acknowledged writes: %+v", what, got)
		return 0
	}
	if k := reopen(wal, "intact"); k != len(prefixes)-1 {
		t.Fatalf("the intact WAL reopens with %d of %d writes", k, len(prefixes)-1)
	}
	last := 0
	for off := 0; off < len(wal); off++ {
		k := reopen(wal[:off], "truncated")
		if k < last {
			t.Fatalf("truncated at byte %d: %d writes survive, %d did at an earlier byte", off, k, last)
		}
		last = k
		flipped := append([]byte(nil), wal...)
		flipped[off] ^= 1 << (off % 8)
		reopen(flipped, "bit flipped")
	}
}

// A checkpoint torn while writing its temp file leaves the installed
// snapshot in force: the store reopens as that snapshot, and the next
// checkpoint replaces the torn file.
func TestTornSnapshotTempIgnored(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir)
	if _, err := s.CreateJob("chaos", json.RawMessage(`{"seed":1}`)); err != nil {
		t.Fatal(err)
	}
	if _, err := putReport(s, `{"iter_ns":12}`); err != nil {
		t.Fatal(err)
	}
	want := imageOf(s).recovered()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	snap, err := os.ReadFile(filepath.Join(dir, snapshotFile))
	if err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(dir, snapshotFile+".tmp")
	if err := os.WriteFile(tmp, snap[:len(snap)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		s = open(t, dir)
		if got := imageOf(s); !reflect.DeepEqual(got, want) {
			t.Fatalf("open %d beside a torn snapshot temp: %+v, want %+v", i, got, want)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
