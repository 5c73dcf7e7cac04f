//go:build race

package server

// The race detector drops a quarter of sync.Pool puts on purpose, so a
// pooled path's allocation count is not its steady state under -race.
func init() { raceEnabled = true }
