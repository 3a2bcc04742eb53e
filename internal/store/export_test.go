package store

import (
	"os"
	"testing"
)

// setSyncFile routes every WAL sync through fn until the test ends.
func setSyncFile(t *testing.T, fn func(*os.File) error) {
	t.Helper()
	prev := syncFile
	syncFile = fn
	t.Cleanup(func() { syncFile = prev })
}

// walWritten is the number of records written to the store's WAL since
// it opened.
func walWritten(s *Store) uint64 { return s.wal.written.Load() }
