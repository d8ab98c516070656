package explore_test

import (
	"errors"
	"fmt"
	"testing"

	"mpsnap/internal/eqaso"
	"mpsnap/internal/explore"
	"mpsnap/internal/harness"
	"mpsnap/internal/la"
	"mpsnap/internal/sim"
)

// TestSketchCounterexampleFound: the paper's one-shot warm-up sketch
// (Section III-C) guarantees only (A1); the explorer must find a schedule
// where a scan misses a completed update — the counterexample motivating
// the "typical quorum techniques" of Section III-B.
func TestSketchCounterexampleFound(t *testing.T) {
	res, err := explore.Run(explore.Options{Depth: 8, MaxRuns: 200000},
		explore.UpdateThenScan(func(w *sim.World, i int) harness.Object {
			o := la.NewOneShot(w.Runtime(i))
			w.SetHandler(i, o)
			return o
		}))
	var v *explore.Violation
	if !errors.As(err, &v) {
		t.Fatalf("expected a violation, got err=%v after %d runs", err, res.Runs)
	}
	t.Logf("counterexample schedule %v found after %d runs: %v", v.Schedule, res.Runs, v.Err)

	// The violation must replay deterministically.
	replay := explore.UpdateThenScan(func(w *sim.World, i int) harness.Object {
		o := la.NewOneShot(w.Runtime(i))
		w.SetHandler(i, o)
		return o
	})
	if err := replay(explore.Replay(v.Schedule)); err == nil {
		t.Fatal("violating schedule did not replay")
	}
}

// TestOneShotAtomicSurvivesAllSchedules: with the quorum collect round
// added, every schedule of the bounded tree is linearizable.
func TestOneShotAtomicSurvivesAllSchedules(t *testing.T) {
	res, err := explore.Run(explore.Options{Depth: 6, MaxRuns: 300000},
		explore.UpdateThenScan(func(w *sim.World, i int) harness.Object {
			o := la.NewOneShotAtomic(w.Runtime(i))
			w.SetHandler(i, o)
			return o
		}))
	if err != nil {
		t.Fatalf("after %d runs: %v", res.Runs, err)
	}
	if res.Truncated {
		t.Fatalf("search truncated at %d runs; raise MaxRuns", res.Runs)
	}
	if res.Runs < 100 {
		t.Fatalf("suspiciously small schedule tree: %d runs", res.Runs)
	}
	t.Logf("verified %d schedules", res.Runs)
}

// TestEQASOSurvivesAllSchedules: the full multi-shot EQ-ASO under the same
// bounded-exhaustive exploration.
func TestEQASOSurvivesAllSchedules(t *testing.T) {
	res, err := explore.Run(explore.Options{Depth: 5, MaxRuns: 300000},
		explore.UpdateThenScan(func(w *sim.World, i int) harness.Object {
			nd := eqaso.New(w.Runtime(i))
			w.SetHandler(i, nd)
			return nd
		}))
	if err != nil {
		t.Fatalf("after %d runs: %v", res.Runs, err)
	}
	if res.Truncated {
		t.Fatalf("search truncated at %d runs", res.Runs)
	}
	t.Logf("verified %d schedules", res.Runs)
}

// TestOdometerEnumeratesFullTree: with synthetic branching (width 2 at
// every one of the first 3 steps, then width 1), the explorer runs
// exactly 2^3 schedules.
func TestOdometerEnumeratesFullTree(t *testing.T) {
	var schedules [][]int
	res, err := explore.Run(explore.Options{Depth: 3, MaxRuns: 100}, func(s sim.Sequencer) error {
		eligible2 := []sim.EventInfo{{Src: 0, Dst: 1}, {Src: 1, Dst: 0}}
		eligible1 := []sim.EventInfo{{Src: 0, Dst: 1}}
		var trace []int
		for step := 0; step < 5; step++ {
			e := eligible1
			if step < 3 {
				e = eligible2
			}
			trace = append(trace, s.Next(e))
		}
		schedules = append(schedules, trace)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Runs != 8 {
		t.Fatalf("runs = %d, want 8", res.Runs)
	}
	seen := map[string]bool{}
	for _, tr := range schedules {
		key := fmt.Sprint(tr[:3])
		if seen[key] {
			t.Fatalf("schedule %v explored twice", tr)
		}
		seen[key] = true
		if tr[3] != 0 || tr[4] != 0 {
			t.Fatalf("beyond-depth choices must default to 0: %v", tr)
		}
	}
}
