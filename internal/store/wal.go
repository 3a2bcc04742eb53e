package store

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
	"sync/atomic"
)

const (
	walFile      = "wal.log"
	snapshotFile = "snapshot.json"

	// maxRecordLen bounds one WAL record; anything larger on replay is
	// treated as corruption rather than an allocation request.
	maxRecordLen = 64 << 20
)

// wal is the append-only mutation log. Framing per record:
//
//	uint32 little-endian payload length
//	uint32 little-endian CRC32 (IEEE) of the payload
//	payload (JSON-encoded record)
//
// Replay stops at the first frame that is truncated or fails its CRC —
// a torn tail from a crash mid-append — and truncates the file there, so
// the next append continues from a clean boundary.
//
// Appends and syncs are decoupled (group commit). append writes a frame
// and hands back a ticket, the count of records written through it;
// waitDurable blocks until a sync covers the ticket. The first waiter
// with no sync in flight leads: it notes how many records are written,
// syncs without holding any lock the appenders take, and wakes every
// waiter that sync covered. A waiter it did not cover leads the next
// round. Because the file is append-only, one sync makes every earlier
// record durable, whoever wrote it.
//
// The first failed write or sync poisons the log: every waiter it did
// not reach and every later append gets that error, and the file is
// never synced again (after a failed fsync the kernel may have dropped
// the dirty pages, so a retry that succeeds proves nothing).
type wal struct {
	f    *os.File
	sync bool
	// written counts the records appended since open. Appenders bump it
	// under Store.mu; a sync leader reads it holding nothing.
	written atomic.Uint64

	mu      sync.Mutex
	synced  sync.Cond // broadcast whenever a sync round ends
	durable uint64    // records known to be on disk
	syncing bool      // a leader is inside syncFile
	err     error     // the first write or sync failure
}

// syncFile is the log's one way to the disk. Tests swap it to count,
// stall or fail syncs.
var syncFile = (*os.File).Sync

func openWAL(path string, sync bool) (*wal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: opening wal: %w", err)
	}
	w := &wal{f: f, sync: sync}
	w.synced.L = &w.mu
	return w, nil
}

// append writes one framed record and returns its ticket. The caller
// holds Store.mu, so tickets number the records in file order.
func (w *wal) append(rec record) (uint64, error) {
	if err := w.failure(); err != nil {
		return 0, err
	}
	payload, err := json.Marshal(rec)
	if err != nil {
		return 0, fmt.Errorf("store: encoding wal record: %w", err)
	}
	buf := make([]byte, 8+len(payload))
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.ChecksumIEEE(payload))
	copy(buf[8:], payload)
	if _, err := w.f.Write(buf); err != nil {
		// A short write leaves a torn frame that replay would stop at,
		// hiding every record appended after it.
		return 0, w.fail(fmt.Errorf("store: appending wal record: %w", err))
	}
	return w.written.Add(1), nil
}

// waitDurable returns once the record with the given ticket is on disk,
// leading sync rounds while none is in flight. Without sync a written
// record is as durable as it gets.
func (w *wal) waitDurable(ticket uint64) error {
	if !w.sync {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	for w.durable < ticket {
		switch {
		case w.err != nil:
			return w.err
		case w.syncing:
			w.synced.Wait()
		default:
			through := w.written.Load()
			w.syncing = true
			w.mu.Unlock()
			err := syncFile(w.f)
			w.mu.Lock()
			w.syncing = false
			if err != nil {
				w.err = fmt.Errorf("store: syncing wal: %w", err)
			} else {
				w.durable = through
			}
			w.synced.Broadcast()
		}
	}
	return nil
}

// failure is the error that poisoned the log, if any.
func (w *wal) failure() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// fail poisons the log with err, keeping an earlier failure.
func (w *wal) fail(err error) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err == nil {
		w.err = err
	}
	return w.err
}

// truncate empties the log. The caller holds Store.mu and has waited for
// every written record to be durable, so no sync round is in flight.
func (w *wal) truncate() error {
	if err := w.f.Truncate(0); err != nil {
		return fmt.Errorf("store: truncating wal: %w", err)
	}
	if _, err := w.f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("store: rewinding wal: %w", err)
	}
	if w.sync {
		if err := syncFile(w.f); err != nil {
			return w.fail(fmt.Errorf("store: syncing wal: %w", err))
		}
	}
	return nil
}

func (w *wal) close() error { return w.f.Close() }

// replayWAL reads every intact record and repairs a torn tail in place.
func replayWAL(path string) ([]record, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("store: reading wal: %w", err)
	}
	var recs []record
	off := 0
	good := 0
	for {
		if off+8 > len(data) {
			break
		}
		n := int(binary.LittleEndian.Uint32(data[off : off+4]))
		sum := binary.LittleEndian.Uint32(data[off+4 : off+8])
		if n > maxRecordLen || off+8+n > len(data) {
			break
		}
		payload := data[off+8 : off+8+n]
		if crc32.ChecksumIEEE(payload) != sum {
			break
		}
		var rec record
		if err := json.Unmarshal(payload, &rec); err != nil {
			// A record that framed correctly but does not parse is real
			// corruption, not a torn tail.
			return nil, fmt.Errorf("store: wal record at offset %d: %w", off, err)
		}
		recs = append(recs, rec)
		off += 8 + n
		good = off
	}
	if good < len(data) {
		// Drop the torn tail so the next append starts on a frame
		// boundary.
		if err := os.Truncate(path, int64(good)); err != nil {
			return nil, fmt.Errorf("store: repairing torn wal tail: %w", err)
		}
	}
	return recs, nil
}

// readSnapshot loads the checkpoint, nil when none exists yet.
func readSnapshot(path string) (*snapshot, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("store: reading snapshot: %w", err)
	}
	var snap snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, fmt.Errorf("store: parsing snapshot: %w", err)
	}
	return &snap, nil
}

// writeSnapshot writes atomically: temp file, fsync, rename. The
// encoding is compact on purpose: indentation would re-format the
// reports' RawMessage bodies, and those must survive a checkpoint
// byte-for-byte (GET /v1/reports/{id} serves them verbatim).
func writeSnapshot(path string, snap *snapshot) error {
	data, err := json.Marshal(snap)
	if err != nil {
		return fmt.Errorf("store: encoding snapshot: %w", err)
	}
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("store: writing snapshot: %w", err)
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("store: writing snapshot: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("store: syncing snapshot: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("store: closing snapshot: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("store: installing snapshot: %w", err)
	}
	return nil
}
