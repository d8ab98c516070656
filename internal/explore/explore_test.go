package explore

import (
	"errors"
	"fmt"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"mpsnap/internal/engine"
	"mpsnap/internal/sim"
)

// scenario returns the row of Scenarios named name.
func scenario(t *testing.T, name string) Scenario {
	t.Helper()
	for _, sc := range Scenarios {
		if sc.Name == name {
			return sc
		}
	}
	t.Fatalf("no scenario %q", name)
	return Scenario{}
}

// pin explores one cell (depth 0 = the row's) and requires every schedule
// to pass and the tree to hold exactly runs schedules: the counts the docs
// quote, and never fewer than the hand-written drivers the table replaced.
func pin(t *testing.T, scenarioName, object string, depth, runs int) {
	t.Helper()
	res, err := Explore(scenario(t, scenarioName), object, Options{Depth: depth})
	if err != nil {
		t.Fatalf("%s/%s after %d runs: %v", scenarioName, object, res.Runs, err)
	}
	if res.Truncated || res.Runs != runs {
		t.Fatalf("%s/%s: %d schedules (truncated=%v), want exactly %d", scenarioName, object, res.Runs, res.Truncated, runs)
	}
}

func TestEQASOSurvivesAllSchedules(t *testing.T) { pin(t, "update-then-scan", "eqaso", 0, 510) }

// TestOneShotAtomicSurvivesAllSchedules: with the quorum collect round
// added, the Section III-C one-shot passes every schedule of the tree.
func TestOneShotAtomicSurvivesAllSchedules(t *testing.T) {
	pin(t, "update-then-scan", "oneshot", 0, 9508)
}

// TestRegisterVectorSurvivesAllSchedules: acr and fastsnap are one core
// (internal/regsnap) under two first-collect rules; both are pinned.
func TestRegisterVectorSurvivesAllSchedules(t *testing.T) {
	pin(t, "update-then-scan", "acr", 0, 252)
	pin(t, "update-then-scan", "fastsnap", 0, 252)
}

// TestBaselinesUnderExploration: the Table I baselines survive the same
// exploration that catches the warm-up sketch's gap.
func TestBaselinesUnderExploration(t *testing.T) {
	runs := map[string]int{"delporte": 252, "laaso": 438, "stacked": 438, "storecollect": 438}
	for _, name := range engine.Names() {
		if engine.MustLookup(name).Baseline {
			t.Run(name, func(t *testing.T) { pin(t, "update-then-scan", name, 0, runs[name]) })
		}
	}
}

func TestConcurrentUpdatesAllSchedulesEQASO(t *testing.T) {
	pin(t, "concurrent-updates", "eqaso", 0, 4398)
}

// TestConcurrentUpdatesAllSchedulesOneShotAtomic explores one decision
// deeper than the row: the one-shot's tree stays small enough.
func TestConcurrentUpdatesAllSchedulesOneShotAtomic(t *testing.T) {
	pin(t, "concurrent-updates", "oneshot", 5, 29322)
}

func TestCrashTimingAllSchedules(t *testing.T) { pin(t, "crash-timing", "eqaso", 0, 1004) }

// TestScenarios explores every cell of Scenarios × Objects() at its row's
// depth: each is green and exhausts its tree, or is rejected by the
// object's fault model, which only the Byzantine engines (n > 3f) do on
// these rows. -short leaves the grid to the pinned tests above.
func TestScenarios(t *testing.T) {
	if testing.Short() {
		t.Skip("the grid takes ~20 s of CPU; the pinned cells run in -short")
	}
	for _, sc := range Scenarios {
		for _, obj := range Objects() {
			t.Run(sc.Name+"/"+obj, func(t *testing.T) {
				t.Parallel()
				in, err := Lookup(obj)
				if err != nil {
					t.Fatal(err)
				}
				res, err := Explore(sc, obj, Options{})
				if verr := in.Validate(sc.N, sc.F); verr != nil {
					if !in.Byzantine || err == nil || err.Error() != verr.Error() {
						t.Fatalf("rejected cell: Explore says %v, Validate says %v", err, verr)
					}
					return
				}
				if err != nil || res.Truncated {
					t.Fatalf("after %d runs (truncated=%v): %v", res.Runs, res.Truncated, err)
				}
			})
		}
	}
}

// TestSketchCounterexampleFound: the paper's one-shot warm-up sketch
// (Section III-C) guarantees only (A1); the explorer must find a schedule
// where a scan misses a completed update — the counterexample motivating
// the "typical quorum techniques" of Section III-B — and it must replay.
func TestSketchCounterexampleFound(t *testing.T) {
	sc := scenario(t, "update-then-scan")
	res, err := Explore(sc, "oneshot-sketch", Options{})
	var v *Violation
	if !errors.As(err, &v) {
		t.Fatalf("expected a violation, got err=%v after %d runs", err, res.Runs)
	}
	if got := fmt.Sprint(v.Schedule); got != "[0 0 1 1 2 2]" || res.Runs != 197 {
		t.Fatalf("counterexample %s after %d runs, want [0 0 1 1 2 2] after 197", got, res.Runs)
	}
	in, _ := Lookup("oneshot-sketch")
	if err := cell(sc, in)(&Sequencer{prefix: v.Schedule}); err == nil {
		t.Fatal("violating schedule did not replay")
	}
}

// TestDesignGridMatchesTable: DESIGN §4's coverage grid has one column per
// object of Objects() and one row per scenario, in table order, with the
// row's n, f and depth; a cell says which check runs (lin, SC) or "—" for
// a topology the object's fault model rejects.
func TestDesignGridMatchesTable(t *testing.T) {
	doc, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile("(?m)^\\| scenario \\| n, f \\| depth \\|(.*)\\|\n\\|[-|]+\n((?:\\|.*\n)+)").FindSubmatch(doc)
	if m == nil {
		t.Fatal("DESIGN.md has no `| scenario | n, f | depth | …` grid")
	}
	cells := func(line string) []string {
		var out []string
		for _, c := range strings.Split(strings.Trim(line, "| "), "|") {
			out = append(out, strings.Trim(c, " `"))
		}
		return out
	}
	if got := cells(string(m[1])); !reflect.DeepEqual(got, Objects()) {
		t.Errorf("grid columns %v, explore.Objects() is %v", got, Objects())
	}
	rows := strings.Split(strings.TrimSpace(string(m[2])), "\n")
	if len(rows) != len(Scenarios) {
		t.Fatalf("grid has %d rows, explore.Scenarios has %d", len(rows), len(Scenarios))
	}
	for i, sc := range Scenarios {
		want := []string{sc.Name, fmt.Sprintf("%d, %d", sc.N, sc.F), fmt.Sprint(sc.Depth)}
		for _, obj := range Objects() {
			in, _ := Lookup(obj)
			switch {
			case in.Validate(sc.N, sc.F) != nil:
				want = append(want, "—")
			case in.Sequential:
				want = append(want, "SC")
			default:
				want = append(want, "lin")
			}
		}
		if got := cells(rows[i]); !reflect.DeepEqual(got, want) {
			t.Errorf("grid row %d is %v, the table says %v", i, got, want)
		}
	}
}

// TestOdometerEnumeratesFullTree: with synthetic branching (width 2 at
// every one of the first 3 steps, then width 1), the explorer runs
// exactly 2^3 schedules.
func TestOdometerEnumeratesFullTree(t *testing.T) {
	var schedules [][]int
	res, err := Run(Options{Depth: 3, MaxRuns: 100}, func(s sim.Sequencer) error {
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
