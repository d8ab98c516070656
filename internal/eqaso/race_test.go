//go:build race

package eqaso_test

// raceEnabled reports that the race detector is on: it makes sync.Pool drop
// records at random, so allocation ceilings are skipped under it.
const raceEnabled = true
