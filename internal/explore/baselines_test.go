package explore_test

import (
	"testing"

	"mpsnap/internal/baseline/delporte"
	"mpsnap/internal/baseline/laaso"
	"mpsnap/internal/baseline/storecollect"
	"mpsnap/internal/explore"
	"mpsnap/internal/harness"
	"mpsnap/internal/sim"
)

// TestBaselinesUnderExploration: the Table I baselines also survive
// bounded-exhaustive schedule exploration of the update-then-scan
// scenario — the same harness that catches the warm-up sketch's gap.
func TestBaselinesUnderExploration(t *testing.T) {
	cases := []struct {
		name  string
		depth int
		mk    func(w *sim.World, i int) harness.Object
	}{
		{"delporte", 5, func(w *sim.World, i int) harness.Object {
			nd := delporte.New(w.Runtime(i))
			w.SetHandler(i, nd)
			return nd
		}},
		{"storecollect", 4, func(w *sim.World, i int) harness.Object {
			nd := storecollect.New(w.Runtime(i))
			w.SetHandler(i, nd)
			return nd
		}},
		{"laaso", 4, func(w *sim.World, i int) harness.Object {
			nd := laaso.New(w.Runtime(i))
			w.SetHandler(i, nd)
			return nd
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			res, err := explore.Run(explore.Options{Depth: tc.depth, MaxRuns: 300000},
				explore.UpdateThenScan(tc.mk))
			if err != nil {
				t.Fatalf("after %d runs: %v", res.Runs, err)
			}
			if res.Truncated {
				t.Fatalf("truncated at %d runs", res.Runs)
			}
			t.Logf("verified %d schedules at depth %d", res.Runs, tc.depth)
		})
	}
}
