// Package store is the serve API's embedded persistence layer: jobs and
// selection reports survive server restarts, and a job that was queued
// or running when the process died is marked failed on recovery instead
// of lingering forever in a live-looking state.
//
// The container this repository builds in has no SQL driver available
// (the module is dependency-free by policy), so the store implements the
// same durability contract an embedded SQLite database in WAL mode would
// give us, directly on the filesystem:
//
//   - every mutation is appended to a CRC-framed write-ahead log
//     (wal.log) and fsynced before the call returns,
//   - reads are served from an in-memory image of the tables,
//   - Checkpoint folds the log into a snapshot (snapshot.json, written
//     atomically via rename) and truncates the log,
//   - Open replays snapshot + log, discarding a torn tail record, runs
//     schema migrations recorded in MANIFEST, and performs crash
//     recovery on the job table.
//
// A store directory is single-process: two concurrent Opens of the same
// directory are not supported (matching SQLite's single-writer model
// without the lock file).
package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// JobState is a job's lifecycle state.
type JobState string

const (
	JobQueued    JobState = "queued"
	JobRunning   JobState = "running"
	JobSucceeded JobState = "succeeded"
	JobFailed    JobState = "failed"
	JobCanceled  JobState = "canceled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == JobSucceeded || s == JobFailed || s == JobCanceled
}

// Job is one row of the job table. The store keeps no wall-clock
// timestamps: rows are ordered by Seq, so listings, golden tests, and
// restart-recovery assertions are byte-deterministic (the same ethos as
// the repository's virtual-time reports).
type Job struct {
	ID   string `json:"id"`
	Kind string `json:"kind"`
	// Spec is the submitted job spec, verbatim.
	Spec  json.RawMessage `json:"spec"`
	State JobState        `json:"state"`
	// Error carries the failure/cancellation reason in terminal states.
	Error string `json:"error,omitempty"`
	// ReportID names the report a succeeded job produced.
	ReportID string `json:"report_id,omitempty"`
	// Seq is the creation sequence number (1-based, per store).
	Seq uint64 `json:"seq"`
}

// Report is one row of the report table.
type Report struct {
	ID   string `json:"id"`
	Kind string `json:"kind"`
	Seed uint64 `json:"seed"`
	// Body is the canonical response JSON served back verbatim by
	// GET /v1/reports/{id}.
	Body json.RawMessage `json:"body"`
	Seq  uint64          `json:"seq"`
}

// Store is an open store directory.
type Store struct {
	mu        sync.Mutex
	dir       string
	wal       *wal
	jobs      map[string]Job
	reports   map[string]Report
	nextJob   uint64
	nextRep   uint64
	recovered []string
	closed    bool
	noSync    bool
}

// Options tune Open.
type Options struct {
	// NoSync skips the per-append fsync. Tests use it for speed; the
	// durability contract then weakens to "survives process crash" (the
	// OS page cache still has the data) but not power loss.
	NoSync bool
}

// snapshot is the checkpoint file layout. Schema is duplicated from the
// manifest so a snapshot is self-describing.
type snapshot struct {
	Schema  int      `json:"schema"`
	NextJob uint64   `json:"next_job"`
	NextRep uint64   `json:"next_report"`
	Jobs    []Job    `json:"jobs"`
	Reports []Report `json:"reports"`
}

// record is one WAL entry: an upsert of a job or report row. Exactly one
// of the two pointers is set.
type record struct {
	Job    *Job    `json:"job,omitempty"`
	Report *Report `json:"report,omitempty"`
	// NextJob/NextRep persist counter advances that are not implied by
	// the row itself (they always are today; kept for forward compat).
	NextJob uint64 `json:"next_job,omitempty"`
	NextRep uint64 `json:"next_report,omitempty"`
}

// Open opens (creating if absent) the store directory, migrates older
// schemas, replays the snapshot and WAL, and runs crash recovery: any
// job still queued or running was interrupted by the previous process's
// death and is marked failed. Recovered job IDs are reported by
// Recovered.
func Open(dir string, opts Options) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	schema, err := loadManifest(dir)
	if err != nil {
		return nil, err
	}
	s := &Store{
		dir:     dir,
		jobs:    make(map[string]Job),
		reports: make(map[string]Report),
		noSync:  opts.NoSync,
	}
	snap, err := readSnapshot(filepath.Join(dir, snapshotFile))
	if err != nil {
		return nil, err
	}
	if snap != nil {
		s.nextJob, s.nextRep = snap.NextJob, snap.NextRep
		for _, j := range snap.Jobs {
			s.jobs[j.ID] = j
		}
		for _, r := range snap.Reports {
			s.reports[r.ID] = r
		}
	}
	recs, err := replayWAL(filepath.Join(dir, walFile))
	if err != nil {
		return nil, err
	}
	for _, rec := range recs {
		s.apply(rec)
	}
	if schema < schemaVersion {
		if err := s.migrate(schema); err != nil {
			return nil, err
		}
	}
	s.wal, err = openWAL(filepath.Join(dir, walFile), !opts.NoSync)
	if err != nil {
		return nil, err
	}
	if schema < schemaVersion {
		// Persist the migrated image and stamp the manifest only after
		// the checkpoint lands, so a crash mid-migration re-migrates.
		if err := s.checkpointLocked(); err != nil {
			return nil, err
		}
		if err := writeManifest(dir, schemaVersion); err != nil {
			return nil, err
		}
	}
	if err := s.recover(); err != nil {
		return nil, err
	}
	return s, nil
}

// recover marks every non-terminal job failed: the process that owned it
// is gone.
func (s *Store) recover() error {
	ids := make([]string, 0, len(s.jobs))
	for id, j := range s.jobs {
		if !j.State.Terminal() {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	for _, id := range ids {
		j := s.jobs[id]
		j.State = JobFailed
		j.Error = "interrupted by server restart"
		if err := s.putJob(j); err != nil {
			return err
		}
		s.recovered = append(s.recovered, id)
	}
	return nil
}

// Recovered lists the job IDs crash recovery marked failed at Open, in
// ID order.
func (s *Store) Recovered() []string { return append([]string(nil), s.recovered...) }

// apply upserts a replayed record into the in-memory image.
func (s *Store) apply(rec record) {
	if rec.Job != nil {
		s.jobs[rec.Job.ID] = *rec.Job
		if rec.Job.Seq > s.nextJob {
			s.nextJob = rec.Job.Seq
		}
	}
	if rec.Report != nil {
		s.reports[rec.Report.ID] = *rec.Report
		if rec.Report.Seq > s.nextRep {
			s.nextRep = rec.Report.Seq
		}
	}
	if rec.NextJob > s.nextJob {
		s.nextJob = rec.NextJob
	}
	if rec.NextRep > s.nextRep {
		s.nextRep = rec.NextRep
	}
}

// putJob writes the row to the WAL and the in-memory image. Caller holds mu.
func (s *Store) putJob(j Job) error {
	if err := s.wal.append(record{Job: &j}); err != nil {
		return err
	}
	s.jobs[j.ID] = j
	return nil
}

// CreateJob allocates the next job ID and persists the row as queued.
func (s *Store) CreateJob(kind string, spec json.RawMessage) (Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return Job{}, ErrClosed
	}
	s.nextJob++
	j := Job{
		ID:    rowID("job-", s.nextJob),
		Kind:  kind,
		Spec:  append(json.RawMessage(nil), spec...),
		State: JobQueued,
		Seq:   s.nextJob,
	}
	if err := s.putJob(j); err != nil {
		s.nextJob--
		return Job{}, err
	}
	return j, nil
}

// ErrClosed is returned by mutations on a closed store.
var ErrClosed = errors.New("store: closed")

// ErrNotFound is returned when a row does not exist.
var ErrNotFound = errors.New("store: not found")

// SetJobState transitions a job. Terminal states record the error
// message (failed/canceled) or the produced report ID (succeeded).
func (s *Store) SetJobState(id string, st JobState, errMsg, reportID string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	j, ok := s.jobs[id]
	if !ok {
		return fmt.Errorf("%w: job %s", ErrNotFound, id)
	}
	j.State = st
	j.Error = errMsg
	if reportID != "" {
		j.ReportID = reportID
	}
	return s.putJob(j)
}

// Job returns one job row.
func (s *Store) Job(id string) (Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Jobs lists every job in creation order.
func (s *Store) Jobs() []Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		out = append(out, j)
	}
	sort.Slice(out, func(i, k int) bool { return out[i].Seq < out[k].Seq })
	return out
}

// ReserveReportID atomically allocates a report ID without writing a
// row; the caller follows up with PutReportWithID. The reservation is
// persisted via the counter record so a crash cannot reissue the ID.
func (s *Store) ReserveReportID() (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return "", ErrClosed
	}
	s.nextRep++
	if err := s.wal.append(record{NextRep: s.nextRep}); err != nil {
		s.nextRep--
		return "", err
	}
	return rowID("rep-", s.nextRep), nil
}

// rowID formats a row ID: prefix and the sequence number, zero-padded to
// six digits.
func rowID(prefix string, seq uint64) string {
	digits := strconv.FormatUint(seq, 10)
	if pad := 6 - len(digits); pad > 0 {
		digits = "000000"[:pad] + digits
	}
	return prefix + digits
}

// PutReportWithID persists a report under an ID previously returned by
// ReserveReportID. Only that exact form is accepted: a second spelling of
// the same sequence number would store a row beside the real one.
func (s *Store) PutReportWithID(id, kind string, seed uint64, body json.RawMessage) (Report, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return Report{}, ErrClosed
	}
	digits, ok := strings.CutPrefix(id, "rep-")
	seq, err := strconv.ParseUint(digits, 10, 64)
	if !ok || err != nil || rowID("rep-", seq) != id {
		return Report{}, fmt.Errorf("store: malformed report ID %q", id)
	}
	r := Report{
		ID:   id,
		Kind: kind,
		Seed: seed,
		Body: append(json.RawMessage(nil), body...),
		Seq:  seq,
	}
	if err := s.wal.append(record{Report: &r}); err != nil {
		return Report{}, err
	}
	s.reports[r.ID] = r
	return r, nil
}

// Report returns one report row.
func (s *Store) Report(id string) (Report, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.reports[id]
	return r, ok
}

// Reports lists every report in creation order.
func (s *Store) Reports() []Report {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Report, 0, len(s.reports))
	for _, r := range s.reports {
		out = append(out, r)
	}
	sort.Slice(out, func(i, k int) bool { return out[i].Seq < out[k].Seq })
	return out
}

// Checkpoint folds the WAL into the snapshot and truncates the log.
func (s *Store) Checkpoint() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	return s.checkpointLocked()
}

func (s *Store) checkpointLocked() error {
	snap := snapshot{
		Schema:  schemaVersion,
		NextJob: s.nextJob,
		NextRep: s.nextRep,
	}
	for _, j := range s.jobs {
		snap.Jobs = append(snap.Jobs, j)
	}
	for _, r := range s.reports {
		snap.Reports = append(snap.Reports, r)
	}
	sort.Slice(snap.Jobs, func(i, k int) bool { return snap.Jobs[i].Seq < snap.Jobs[k].Seq })
	sort.Slice(snap.Reports, func(i, k int) bool { return snap.Reports[i].Seq < snap.Reports[k].Seq })
	if err := writeSnapshot(filepath.Join(s.dir, snapshotFile), &snap); err != nil {
		return err
	}
	if s.wal != nil {
		return s.wal.truncate()
	}
	return nil
}

// Close checkpoints and releases the store. Further mutations fail with
// ErrClosed.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	err := s.checkpointLocked()
	if cerr := s.wal.close(); err == nil {
		err = cerr
	}
	return err
}

// Abandon releases the store WITHOUT checkpointing or any terminal-state
// writes — the on-disk image stays exactly as the last mutation left it,
// as if the process had been killed. The restart-persistence tests use
// it to simulate a crash inside one process; production code calls
// Close.
func (s *Store) Abandon() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	return s.wal.close()
}
