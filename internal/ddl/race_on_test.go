//go:build race

package ddl

// raceEnabled reports that the race detector is active: sync.Pool then
// drops a quarter of what is put back, so allocation ceilings on pooled
// scratch do not hold.
const raceEnabled = true
