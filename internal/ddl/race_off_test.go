//go:build !race

package ddl

const raceEnabled = false
