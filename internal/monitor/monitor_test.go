package monitor

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"mpsnap/internal/history"
	"mpsnap/internal/rt"
)

// feed is a test helper driving a monitor through a recorder, the same
// attachment path production uses.
type feed struct {
	rec *history.Recorder
	m   *Monitor
}

func newFeed(n int, cfg Config) *feed {
	cfg.N = n
	rec := history.NewRecorder(n)
	m := New(cfg)
	rec.SetSink(m)
	return &feed{rec: rec, m: m}
}

func classes(m *Monitor) map[string]int { return m.Stats().ByClass }

func TestMonitorCleanStream(t *testing.T) {
	f := newFeed(2, Config{})
	// Two writers alternate, a third party scans consistently.
	u1 := f.rec.BeginUpdateAs(0, 0, "a1", 0)
	u1.End(5)
	sc1 := f.rec.BeginScanAs(1, 0, 10)
	sc1.EndScan([]string{"a1", ""}, 15)
	u2 := f.rec.BeginUpdateAs(1, 0, "b1", 20)
	u2.End(25)
	sc2 := f.rec.BeginScanAs(0, 0, 30)
	sc2.EndScan([]string{"a1", "b1"}, 35)
	if !f.m.OK() {
		t.Fatalf("clean stream flagged: %v", f.m.Violations())
	}
	st := f.m.Stats()
	if st.Updates != 2 || st.Scans != 2 || st.Pending != 0 {
		t.Fatalf("stats = %+v", st)
	}
	// The offline checker agrees on the same recorded history.
	if rep := f.rec.History().CheckLinearizable(); !rep.OK {
		t.Fatalf("offline checker disagrees: %v", rep.Violations)
	}
}

func TestMonitorValidity(t *testing.T) {
	f := newFeed(2, Config{})
	u := f.rec.BeginUpdateAs(0, 0, "a1", 0)
	u.End(5)
	sc := f.rec.BeginScanAs(1, 0, 10)
	sc.EndScan([]string{"forged", ""}, 15)
	if got := classes(f.m); got[ClassValidity] != 1 {
		t.Fatalf("want one validity violation, got %v (%v)", got, f.m.Violations())
	}
}

func TestMonitorSelfInclusion(t *testing.T) {
	f := newFeed(2, Config{})
	u := f.rec.BeginUpdateAs(0, 3, "a1", 0)
	u.End(5)
	// Same node, same client: the scan was invoked after its own update
	// completed but misses it.
	sc := f.rec.BeginScanAs(0, 3, 10)
	sc.EndScan([]string{"", ""}, 15)
	got := classes(f.m)
	if got[ClassSelfInclusion] != 1 {
		t.Fatalf("want a self-inclusion violation, got %v", got)
	}
	// The global (A2) class necessarily fires too — self-inclusion is its
	// per-client, skew-immune projection.
	if got[ClassContainment] != 1 {
		t.Fatalf("want the containment violation alongside, got %v", got)
	}
}

func TestMonitorContainment(t *testing.T) {
	f := newFeed(2, Config{})
	u := f.rec.BeginUpdateAs(0, 0, "a1", 0)
	u.End(5)
	// A different node's client scans after the update completed; no
	// self-inclusion involvement, pure (A2).
	sc := f.rec.BeginScanAs(1, 0, 10)
	sc.EndScan([]string{"", ""}, 15)
	got := classes(f.m)
	if got[ClassContainment] != 1 {
		t.Fatalf("want exactly one containment violation, got %v", got)
	}
	if len(got) != 1 {
		t.Fatalf("want containment only, got %v", got)
	}
}

func TestMonitorComparability(t *testing.T) {
	f := newFeed(2, Config{})
	// Both updates stay in flight; two overlapping scans return
	// incomparable cuts. Only (A1) can fire: nothing has completed before
	// either invocation, and neither scan precedes the other.
	f.rec.BeginUpdateAs(0, 0, "a1", 0)
	f.rec.BeginUpdateAs(1, 0, "b1", 0)
	sc1 := f.rec.BeginScanAs(0, 1, 10)
	sc2 := f.rec.BeginScanAs(1, 1, 12)
	sc1.EndScan([]string{"a1", ""}, 50)
	sc2.EndScan([]string{"", "b1"}, 52)
	got := classes(f.m)
	if got[ClassComparability] != 1 {
		t.Fatalf("want one comparability violation, got %v", got)
	}
	if len(got) != 1 {
		t.Fatalf("want comparability only, got %v", got)
	}
}

func TestMonitorFrontierRegression(t *testing.T) {
	f := newFeed(2, Config{})
	// The update stays in flight (completes long after both scans), so
	// (A2) never fires; the second scan still must not regress below the
	// first scan's completed cut.
	u := f.rec.BeginUpdateAs(0, 0, "a1", 0)
	sc1 := f.rec.BeginScanAs(1, 0, 5)
	sc1.EndScan([]string{"a1", ""}, 15)
	sc2 := f.rec.BeginScanAs(1, 1, 20)
	sc2.EndScan([]string{"", ""}, 25)
	u.End(100)
	got := classes(f.m)
	if got[ClassFrontier] != 1 {
		t.Fatalf("want one frontier-regression violation, got %v", got)
	}
	if len(got) != 1 {
		t.Fatalf("want frontier-regression only, got %v", got)
	}
}

func TestMonitorPrefixClosure(t *testing.T) {
	f := newFeed(2, Config{})
	// Node 0's update completes, then node 1's update begins (so it is a
	// real-time successor). A slow scan invoked before everything returns
	// node 1's update without node 0's — prefix closure of the included
	// update is broken, but (A2) at the scan's own invocation requires
	// nothing.
	u0 := f.rec.BeginUpdateAs(0, 0, "a1", 0)
	sc := f.rec.BeginScanAs(1, 1, 2)
	u0.End(10)
	f.rec.BeginUpdateAs(1, 0, "b1", 20)
	sc.EndScan([]string{"", "b1"}, 200)
	got := classes(f.m)
	if got[ClassPrefixClosure] != 1 {
		t.Fatalf("want one prefix-closure violation, got %v", got)
	}
	if len(got) != 1 {
		t.Fatalf("want prefix-closure only, got %v", got)
	}
}

func TestMonitorWindowEviction(t *testing.T) {
	const window = 100
	f := newFeed(2, Config{Window: window})
	// An early scan pins an incomparable cut, then ages out; a much later
	// incomparable scan is NOT flagged (the evidence left the window) —
	// the documented detectability limit of the online monitor.
	f.rec.BeginUpdateAs(0, 0, "a1", 0)
	f.rec.BeginUpdateAs(1, 0, "b1", 0)
	sc1 := f.rec.BeginScanAs(0, 1, 10)
	sc1.EndScan([]string{"a1", ""}, 20)
	// Push time forward with scans far beyond the window.
	filler := f.rec.BeginScanAs(1, 1, 500)
	filler.EndScan([]string{"a1", ""}, 505)
	sc2 := f.rec.BeginScanAs(1, 2, 510)
	sc2.EndScan([]string{"", "b1"}, 515)
	st := f.m.Stats()
	if st.Evicted == 0 {
		t.Fatalf("expected evictions, stats = %+v", st)
	}
	// sc2 is incomparable with the evicted sc1 — but also with the
	// in-window filler, so comparability still fires once, against the
	// filler only.
	got := classes(f.m)
	if got[ClassComparability] != 1 {
		t.Fatalf("want one in-window comparability violation, got %v", got)
	}
}

func TestMonitorWindowMissAfterEviction(t *testing.T) {
	const window = 100
	f := newFeed(2, Config{Window: window})
	// Both updates stay in flight; every scan below overlaps every other
	// (all invoked before sc1's response), so the frontier imposes nothing
	// and the only condition at stake is (A1) comparability. sc1's cut
	// [1,0] is incomparable with sc2's [0,1] — a real offline violation —
	// but wedged filler scans completing late push sc1 out of the window
	// before sc2 completes, so the online monitor misses it: the
	// documented detectability limit.
	f.rec.BeginUpdateAs(0, 0, "a1", 0)
	f.rec.BeginUpdateAs(1, 0, "b1", 0)
	fill1 := f.rec.BeginScanAs(0, 2, 5)
	fill2 := f.rec.BeginScanAs(0, 3, 6)
	fill3 := f.rec.BeginScanAs(0, 4, 7)
	sc1 := f.rec.BeginScanAs(0, 1, 10)
	sc2 := f.rec.BeginScanAs(1, 2, 12)
	sc1.EndScan([]string{"a1", ""}, 20)
	fill1.EndScan([]string{"", ""}, 200)
	fill2.EndScan([]string{"", ""}, 300)
	fill3.EndScan([]string{"", ""}, 520)
	sc2.EndScan([]string{"", "b1"}, 615)
	if !f.m.OK() {
		t.Fatalf("violation against evicted scan should be missed (documented), got %v", f.m.Violations())
	}
	if f.m.Stats().Evicted == 0 {
		t.Fatal("expected sc1 to be evicted")
	}
	// The offline checker, with the full history, does catch it.
	if v := f.rec.History().CheckA1(); len(v) == 0 {
		t.Fatal("offline (A1) should flag the incomparable pair")
	}
}

func TestMonitorPrunedValueSkips(t *testing.T) {
	const window = 100
	f := newFeed(1, Config{Window: window})
	// Many completed updates march the window forward until the first
	// value's registry entry is pruned; a wedged scan then returning it is
	// skipped, not flagged — the monitor cannot distinguish ancient from
	// forged once the registry forgot the value.
	for i := 1; i <= 10; i++ {
		u := f.rec.BeginUpdateAs(0, 0, fmt.Sprintf("a%d", i), rt.Ticks(i*100))
		u.End(rt.Ticks(i*100 + 5))
	}
	sc := f.rec.BeginScanAs(0, 1, 90)
	sc.EndScan([]string{"a1"}, 1100)
	st := f.m.Stats()
	if st.Skipped != 1 {
		t.Fatalf("want the wedged scan skipped, stats = %+v violations = %v", st, f.m.Violations())
	}
	if st.Violations != 0 {
		t.Fatalf("skip must not count as violation: %v", f.m.Violations())
	}
}

func TestMonitorOnViolationAndDump(t *testing.T) {
	var fired []Violation
	dir := t.TempDir()
	path := filepath.Join(dir, "monitor-dump.json")
	var m *Monitor
	m = New(Config{N: 2, OnViolation: func(v Violation) {
		fired = append(fired, v)
		if len(fired) == 1 {
			// First violation: dump from inside the callback, the way the
			// chaos harness wires it.
			if err := m.DumpFile(path); err != nil {
				t.Errorf("DumpFile: %v", err)
			}
		}
	}})
	rec := history.NewRecorder(2)
	rec.SetSink(m)
	u := rec.BeginUpdateAs(0, 0, "a1", 0)
	u.End(5)
	sc := rec.BeginScanAs(1, 0, 10)
	sc.EndScan([]string{"", ""}, 15)
	if len(fired) != 1 {
		t.Fatalf("want 1 callback, got %d", len(fired))
	}
	if fired[0].Class != ClassContainment {
		t.Fatalf("want containment, got %v", fired[0])
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var d Dump
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatalf("dump is not valid JSON: %v", err)
	}
	if d.N != 2 || len(d.Violations) != 1 || len(d.Transcript) == 0 {
		t.Fatalf("dump = %+v", d)
	}
	if d.Violations[0].Class != ClassContainment {
		t.Fatalf("dump violation = %+v", d.Violations[0])
	}
	// The transcript holds the window's completed ops, oldest first.
	if d.Transcript[0].Type != "update" || d.Transcript[0].Arg != "a1" {
		t.Fatalf("transcript = %+v", d.Transcript)
	}
}

func TestMonitorMaxViolations(t *testing.T) {
	f := newFeed(2, Config{MaxViolations: 2})
	u := f.rec.BeginUpdateAs(0, 0, "a1", 0)
	u.End(5)
	for i := 0; i < 5; i++ {
		sc := f.rec.BeginScanAs(1, 0, rt.Ticks(10+i))
		sc.EndScan([]string{"", ""}, rt.Ticks(20+i))
	}
	if got := len(f.m.Violations()); got != 2 {
		t.Fatalf("violation list should cap at 2, got %d", got)
	}
	if st := f.m.Stats(); st.Violations != 5 {
		t.Fatalf("uncapped count should keep running, stats = %+v", st)
	}
}

func TestMonitorTranscriptRing(t *testing.T) {
	f := newFeed(1, Config{TranscriptCap: 4})
	for i := 1; i <= 10; i++ {
		u := f.rec.BeginUpdateAs(0, 0, fmt.Sprintf("a%d", i), rt.Ticks(i*10))
		u.End(rt.Ticks(i*10 + 5))
	}
	var buf bytes.Buffer
	if err := f.m.WriteDump(&buf); err != nil {
		t.Fatal(err)
	}
	var d Dump
	if err := json.Unmarshal(buf.Bytes(), &d); err != nil {
		t.Fatal(err)
	}
	if len(d.Transcript) != 4 {
		t.Fatalf("transcript cap 4, got %d", len(d.Transcript))
	}
	if d.Transcript[0].Arg != "a7" || d.Transcript[3].Arg != "a10" {
		t.Fatalf("ring should keep the newest ops oldest-first: %+v", d.Transcript)
	}
}

// TestMonitorPruneWalksOnlyWhenFloorAdvances pins prune's cost: a writer's
// value map is walked when its pruning floor advances, not on every
// completion anywhere in the system. Seven writers go idle after a few
// updates while an eighth keeps completing; the idle writers' maps must be
// walked O(1) times each, not once per completion of the busy one.
func TestMonitorPruneWalksOnlyWhenFloorAdvances(t *testing.T) {
	const (
		writers     = 8
		idleUpdates = 3
		busyUpdates = 500
		window      = 100
	)
	f := newFeed(writers, Config{Window: window})
	now := rt.Ticks(0)
	update := func(node int, val string) {
		u := f.rec.BeginUpdateAs(node, 0, val, now)
		u.End(now + 1)
		now += 2
	}
	for i := 1; i < writers; i++ {
		for k := 1; k <= idleUpdates; k++ {
			update(i, fmt.Sprintf("w%d-%d", i, k))
		}
	}
	for k := 1; k <= busyUpdates; k++ {
		update(0, fmt.Sprintf("busy-%d", k))
	}
	if !f.m.OK() {
		t.Fatalf("clean stream flagged: %v", f.m.Violations())
	}
	// The busy writer's floor can advance once per completion; each idle
	// writer's at most once per update it ever made.
	if limit := busyUpdates + (writers-1)*idleUpdates; f.m.pruneWalks > limit {
		t.Errorf("prune walked value maps %d times for %d completions (limit %d): it re-walks writers whose floor did not move",
			f.m.pruneWalks, f.m.Stats().Updates, limit)
	}
	// Pruning still happens: an idle writer keeps only its floor value, the
	// busy one only what is inside the window.
	for i, w := range f.m.writers {
		if i > 0 && (len(w.vals) != 1 || w.pruned != idleUpdates-1) {
			t.Errorf("idle writer %d retains %d values, pruned=%d; want 1 and %d", i, len(w.vals), w.pruned, idleUpdates-1)
		}
		if i == 0 && len(w.vals) > window {
			t.Errorf("busy writer retains %d values past a %d-tick window", len(w.vals), window)
		}
	}
}
