package bench

import (
	"strings"
	"testing"

	"mpsnap/internal/loadgen"
)

// TestWallclockCheckPerEngineFloor pins the per-point gate: every measured
// (engine, clients) point is held to its own floor of the baseline, so a
// fast challenger cannot mask a collapsed eqaso.
func TestWallclockCheckPerEngineFloor(t *testing.T) {
	pt := func(engine string, clients int, ops float64) loadgen.Result {
		return loadgen.Result{Engine: engine, Clients: clients, OpsPerSec: ops}
	}
	baseline := []loadgen.Result{pt("eqaso", 256, 12000), pt("acr", 256, 150000), pt("acr", 1024, 240000)}
	check := func(points ...loadgen.Result) error {
		return checkWallclock(wallclockLoad, wallclockLoad, points, baseline)
	}

	// Slower than the baseline but above a third of it: passes.
	if err := check(pt("eqaso", 256, 4100), pt("acr", 256, 60000)); err != nil {
		t.Fatalf("Check rejected a run above every floor: %v", err)
	}
	// acr far above its floor does not excuse eqaso below its own.
	err := check(pt("eqaso", 256, 3900), pt("acr", 256, 400000))
	if err == nil || !strings.Contains(err.Error(), "eqaso clients=256") {
		t.Fatalf("Check = %v, want an eqaso clients=256 floor failure", err)
	}
	if strings.Contains(err.Error(), "acr") {
		t.Errorf("passing acr point reported: %v", err)
	}
	// A point the baseline never measured cannot be gated: that is an
	// error, not a silent pass — for an unknown engine or client count.
	for _, p := range []loadgen.Result{pt("fastsnap", 256, 1e6), pt("eqaso", 1024, 1e6)} {
		if err := check(p); err == nil || !strings.Contains(err.Error(), "missing from the baseline") {
			t.Errorf("Check(%s clients=%d) = %v, want missing-from-baseline", p.Engine, p.Clients, err)
		}
	}
	// No baseline, or one measured on a different workload, is an error.
	if err := checkWallclock(wallclockLoad, loadgen.Config{}, []loadgen.Result{pt("acr", 256, 1)}, nil); err == nil {
		t.Error("Check passed without a baseline")
	}
	other := wallclockLoad
	other.ScanPct = 50
	if err := checkWallclock(wallclockLoad, other, []loadgen.Result{pt("acr", 256, 150000)}, baseline); err == nil {
		t.Error("Check compared runs with different scan mixes")
	}
	// The committed artifact loads, measured this workload, and holds
	// exactly the gated engines' points.
	var committed loadgen.Config
	var points []loadgen.Result
	if _, err := Load("../../"+wallclockArtifact, &committed, &points); err != nil {
		t.Fatal(err)
	}
	if committed != wallclockLoad {
		t.Errorf("committed %s measured %+v, the experiment runs %+v", wallclockArtifact, committed, wallclockLoad)
	}
	if len(points) != 3 {
		t.Errorf("committed %s has %d points, want the three-row floor file", wallclockArtifact, len(points))
	}
	for _, eng := range []string{"eqaso", "acr", "fastsnap"} {
		if loadPoint(points, eng, wallclockLoad.Clients) == nil {
			t.Errorf("committed %s has no %s clients=%d point", wallclockArtifact, eng, wallclockLoad.Clients)
		}
	}
}
