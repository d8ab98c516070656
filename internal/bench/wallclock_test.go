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
	baseline := &Wallclock{N: 4, ScanPct: 10, Points: []loadgen.Result{
		pt("eqaso", 256, 12000), pt("acr", 256, 150000), pt("acr", 1024, 240000),
	}}
	run := func(points ...loadgen.Result) Wallclock {
		return Wallclock{N: 4, ScanPct: 10, Points: points, baseline: baseline}
	}

	// Slower than the baseline but above a third of it: passes.
	if err := run(pt("eqaso", 256, 4100), pt("acr", 256, 60000)).Check(); err != nil {
		t.Fatalf("Check rejected a run above every floor: %v", err)
	}
	// acr far above its floor does not excuse eqaso below its own.
	err := run(pt("eqaso", 256, 3900), pt("acr", 256, 400000)).Check()
	if err == nil || !strings.Contains(err.Error(), "eqaso clients=256") {
		t.Fatalf("Check = %v, want an eqaso clients=256 floor failure", err)
	}
	if strings.Contains(err.Error(), "acr") {
		t.Errorf("passing acr point reported: %v", err)
	}
	// A point the baseline never measured cannot be gated: that is an
	// error, not a silent pass — for an unknown engine or client count.
	for _, p := range []loadgen.Result{pt("fastsnap", 256, 1e6), pt("eqaso", 1024, 1e6)} {
		if err := run(p).Check(); err == nil || !strings.Contains(err.Error(), "missing from the baseline") {
			t.Errorf("Check(%s clients=%d) = %v, want missing-from-baseline", p.Engine, p.Clients, err)
		}
	}
	// No baseline, or one measured on a different workload, is an error.
	if err := (Wallclock{Points: []loadgen.Result{pt("acr", 256, 1)}}).Check(); err == nil {
		t.Error("Check passed without a baseline")
	}
	other := run(pt("acr", 256, 150000))
	other.ScanPct = 50
	if err := other.Check(); err == nil {
		t.Error("Check compared runs with different scan mixes")
	}
	// The committed artifact loads and holds the quick sweep's points.
	committed, err := LoadWallclock("../../BENCH_wallclock.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, eng := range []string{"eqaso", "acr", "fastsnap"} {
		if committed.point(eng, 256) == nil {
			t.Errorf("committed BENCH_wallclock.json has no %s clients=256 point", eng)
		}
	}
}
