package chaos

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"mpsnap/internal/monitor"
	"mpsnap/internal/rt"
)

// TestChurnSimEngines runs churn on the simulator across the atomic
// engine matrix: the history must stay linearizable and the armed
// streaming monitor must agree (zero violations). Durable engines get the
// rolling-restart lane; the challengers run flap-only.
func TestChurnSimEngines(t *testing.T) {
	for _, eng := range []string{"eqaso", "acr", "fastsnap"} {
		eng := eng
		t.Run(eng, func(t *testing.T) {
			res, err := Run(Config{N: 5, F: 2, Engine: eng, Seed: 11, Duration: 150 * rt.TicksPerD, Churn: true}, "sim")
			if err != nil {
				t.Fatal(err)
			}
			if !res.Check.OK {
				t.Fatalf("consistency: %v", res.Check.Violations)
			}
			if res.MonitorStats == nil {
				t.Fatal("churn must arm the monitor")
			}
			if len(res.MonitorViolations) != 0 {
				t.Fatalf("monitor: %v", res.MonitorViolations)
			}
			if res.MonitorStats.Scans == 0 || res.MonitorStats.Updates == 0 {
				t.Fatalf("monitor consumed nothing: %+v", res.MonitorStats)
			}
			durable := eng == "eqaso"
			if res.Schedule.HasRestarts() != durable {
				t.Fatalf("restart lane with %s: got %v, want %v", eng, res.Schedule.HasRestarts(), durable)
			}
		})
	}
}

// TestChurnSimDeterministic: the whole churn run — schedule, bursty
// workload, recorded history — replays byte-identically per seed, with
// the monitor attached.
func TestChurnSimDeterministic(t *testing.T) {
	run := func() *Result {
		res, err := Run(Config{N: 5, F: 2, Seed: 5, Duration: 120 * rt.TicksPerD, Churn: true}, "sim")
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	dump := func(r *Result) string {
		var buf bytes.Buffer
		if err := r.Hist.DumpJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a, b := run(), run()
	if dump(a) != dump(b) {
		t.Fatal("churn sim runs with one seed must be byte-identical")
	}
	if a.MonitorStats.Scans != b.MonitorStats.Scans || a.MonitorStats.Violations != b.MonitorStats.Violations {
		t.Fatalf("monitor verdict differs across identical runs: %+v vs %+v", a.MonitorStats, b.MonitorStats)
	}
}

// TestChurnMonitorCatchesInjectedCorruption drives the falsifiability
// requirement end to end: a corrupted scan completion (blanked segment
// whose writer finished before the scan was invoked) must be flagged as a
// containment violation within the window, the first violation must dump
// the monitor transcript and the obs trace ring, and the report must turn
// failed — while the recorded history itself stays linearizable, proving
// the corruption never left the monitor's view.
func TestChurnMonitorCatchesInjectedCorruption(t *testing.T) {
	dir := t.TempDir()
	res, err := Run(Config{
		N: 5, F: 2, Seed: 11, Duration: 150 * rt.TicksPerD,
		Churn: true, TraceDir: dir, monitorCorrupt: true,
	}, "sim")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Check.OK {
		t.Fatalf("recorded history must stay intact: %v", res.Check.Violations)
	}
	if len(res.MonitorViolations) == 0 {
		t.Fatal("monitor missed the injected corruption")
	}
	if res.MonitorStats.ByClass[monitor.ClassContainment] == 0 {
		t.Fatalf("want a containment violation, got %v", res.MonitorViolations)
	}
	if res.MonitorPath == "" {
		t.Fatal("first violation must dump the monitor transcript")
	}
	raw, err := os.ReadFile(res.MonitorPath)
	if err != nil {
		t.Fatal(err)
	}
	var d struct {
		Violations []struct {
			Class string `json:"class"`
		} `json:"violations"`
		Transcript []json.RawMessage `json:"transcript"`
	}
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatalf("monitor dump does not parse: %v", err)
	}
	if len(d.Violations) == 0 || len(d.Transcript) == 0 {
		t.Fatalf("monitor dump missing violations (%d) or transcript (%d)", len(d.Violations), len(d.Transcript))
	}
	if res.MonitorTracePath == "" {
		t.Fatal("first violation must dump the obs trace ring")
	}
	if st, err := os.Stat(res.MonitorTracePath); err != nil || st.Size() == 0 {
		t.Fatalf("obs trace dump unusable: %v", err)
	}
	if rep := NewReport("sim", "eqaso", res); rep.OK {
		t.Fatal("a monitor violation must fail the report")
	}
}

// TestChurnConfigRules pins the churn-mode gates: no Service layer, no
// restart lane off the chan/sim backends, and the monitor usable on its
// own outside churn mode.
func TestChurnConfigRules(t *testing.T) {
	if _, err := Run(Config{N: 5, F: 2, Seed: 1, Duration: 10 * rt.TicksPerD, Churn: true, Service: true}, "sim"); err == nil || !strings.Contains(err.Error(), "Service") {
		t.Fatalf("churn with Service must be rejected, got %v", err)
	}
	if _, err := Run(Config{N: 3, F: 1, Seed: 1, Duration: 10 * rt.TicksPerD, Churn: true}, "tcp"); err == nil || !strings.Contains(err.Error(), "chan") {
		t.Fatalf("churn restarts on tcp must be rejected, got %v", err)
	}
	res, err := Run(Config{N: 3, F: 1, Seed: 2, Duration: 60 * rt.TicksPerD, Monitor: true}, "sim")
	if err != nil {
		t.Fatal(err)
	}
	if res.MonitorStats == nil || len(res.MonitorViolations) != 0 {
		t.Fatalf("standalone monitor run: %+v %v", res.MonitorStats, res.MonitorViolations)
	}
}

// TestChurnChan runs churn — restart lane included — against the chan
// transport for a short wall-clock stretch.
func TestChurnChan(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock churn run")
	}
	res, err := Run(Config{N: 5, F: 2, Seed: 6, Duration: TicksOf(1500 * time.Millisecond), Churn: true}, "chan")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Check.OK {
		t.Fatalf("consistency: %v", res.Check.Violations)
	}
	if res.MonitorStats == nil || len(res.MonitorViolations) != 0 {
		t.Fatalf("monitor: %+v %v", res.MonitorStats, res.MonitorViolations)
	}
}
