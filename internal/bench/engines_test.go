package bench

import "testing"

// TestRunEngines runs the full bake-off at CI scale and enforces the
// acceptance gate: every engine's history check passes and fastsnap's
// contention-free scan p50 beats EQ-ASO's.
func TestRunEngines(t *testing.T) {
	e, err := engines(Params{Quick: true, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Check(); err != nil {
		t.Fatal(err)
	}
	points := e.Points.([]EnginePoint)
	if len(points) < 10 {
		t.Fatalf("bake-off covered %d engines, want all registered (≥10)", len(points))
	}
	var fs EnginePoint
	for _, p := range points {
		if p.Engine == "fastsnap" {
			fs = p
		}
	}
	if fs.ScanCount == 0 || fs.UpdateCount == 0 {
		t.Fatalf("fastsnap measured no ops: %+v", fs)
	}
	// Contention-free fastsnap scans must all take the one-round fast
	// path: one collect broadcast + replies = 2D under constant-D delays.
	if fs.ScanMax > 2.0 {
		t.Errorf("fastsnap contention-free scan max = %.1fD, want ≤ 2D (fast path)", fs.ScanMax)
	}
}

// TestEnginesCheckDetectsRegression ensures the gate actually fires.
func TestEnginesCheckDetectsRegression(t *testing.T) {
	pt := func(engine string, scanP50 float64) EnginePoint {
		p := EnginePoint{Engine: engine, CheckPassed: true}
		p.ScanP50 = scanP50
		return p
	}
	points := []EnginePoint{pt("eqaso", 4), pt("fastsnap", 4)}
	if err := checkEngines(points); err == nil {
		t.Fatal("Check accepted fastsnap scan p50 == eqaso's")
	}
	points[1].ScanP50 = 2
	if err := checkEngines(points); err != nil {
		t.Fatalf("Check rejected a passing bake-off: %v", err)
	}
	points[0].CheckPassed = false
	if err := checkEngines(points); err == nil {
		t.Fatal("Check accepted a failed history check")
	}
}
