//go:build race

package transport_test

// raceEnabled reports that the race detector is on: wall-clock latency
// bounds are skipped under its 5-10x slowdown.
const raceEnabled = true
