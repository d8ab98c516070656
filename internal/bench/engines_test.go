package bench

import (
	"encoding/json"
	"testing"
)

// TestRunEngines runs the full bake-off at CI scale and enforces the
// acceptance gate: every engine's history check passes and fastsnap's
// contention-free scan p50 beats EQ-ASO's.
func TestRunEngines(t *testing.T) {
	e, err := RunEngines(5, 8, 42)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Check(); err != nil {
		t.Fatal(err)
	}
	if len(e.Points) < 10 {
		t.Fatalf("bake-off covered %d engines, want all registered (≥10)", len(e.Points))
	}
	fs, _ := e.Point("fastsnap")
	if fs.ScanCount == 0 || fs.UpdateCount == 0 {
		t.Fatalf("fastsnap measured no ops: %+v", fs)
	}
	// Contention-free fastsnap scans must all take the one-round fast
	// path: one collect broadcast + replies = 2D under constant-D delays.
	if fs.ScanMax > 2.0 {
		t.Errorf("fastsnap contention-free scan max = %.1fD, want ≤ 2D (fast path)", fs.ScanMax)
	}
	blob, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	var back Engines
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatalf("BENCH_engines.json round-trip: %v", err)
	}
	if len(back.Points) != len(e.Points) {
		t.Fatalf("JSON round-trip lost points: %d vs %d", len(back.Points), len(e.Points))
	}
}

// TestEnginesCheckDetectsRegression ensures the gate actually fires.
func TestEnginesCheckDetectsRegression(t *testing.T) {
	e := Engines{Points: []EnginePoint{
		{Engine: "eqaso", ScanP50: 4, CheckPassed: true},
		{Engine: "fastsnap", ScanP50: 4, CheckPassed: true},
	}}
	if err := e.Check(); err == nil {
		t.Fatal("Check accepted fastsnap scan p50 == eqaso's")
	}
	e.Points[1].ScanP50 = 2
	if err := e.Check(); err != nil {
		t.Fatalf("Check rejected a passing bake-off: %v", err)
	}
	e.Points[0].CheckPassed = false
	if err := e.Check(); err == nil {
		t.Fatal("Check accepted a failed history check")
	}
}
