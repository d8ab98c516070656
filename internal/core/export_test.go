package core

import "testing"

// shrinkWindow runs the rest of the test with the recent window holding
// at most n frozen values, so short streams cross the seal boundary. The
// capacity has no production setter.
func shrinkWindow(t testing.TB, n int) {
	old := windowCap
	windowCap = n
	t.Cleanup(func() { windowCap = old })
}
