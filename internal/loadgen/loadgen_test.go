package loadgen

import (
	"strings"
	"testing"
	"time"

	_ "mpsnap/internal/engine/all"
)

// TestClosedLoopSmoke: a short closed-loop run completes operations without errors and reports coherent numbers.
func TestClosedLoopSmoke(t *testing.T) {
	res, err := Run(Config{
		Engine: "fastsnap", N: 3, F: 1, Clients: 16,
		Duration: 400 * time.Millisecond, Warmup: 100 * time.Millisecond,
		ScanPct: 20, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops == 0 {
		t.Fatal("no operations recorded")
	}
	if res.Errors != 0 {
		t.Fatalf("%d operation errors", res.Errors)
	}
	if res.OpsPerSec <= 0 {
		t.Errorf("OpsPerSec = %g", res.OpsPerSec)
	}
	if res.Update.Count+res.Scan.Count != uint64(res.Ops) {
		t.Errorf("histogram counts %d+%d != ops %d", res.Update.Count, res.Scan.Count, res.Ops)
	}
	if res.SvcUpdates == 0 || res.SvcProtoUpdates == 0 {
		t.Errorf("svc counters empty: updates=%d proto=%d", res.SvcUpdates, res.SvcProtoUpdates)
	}
}

// TestOpenLoopSmoke: the open-loop scheduler functions end to end.
func TestOpenLoopSmoke(t *testing.T) {
	res, err := Run(Config{
		Engine: "eqaso", N: 3, F: 1, Clients: 8,
		Duration: 400 * time.Millisecond, Warmup: 100 * time.Millisecond,
		Rate: 2000, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops == 0 {
		t.Fatal("no operations recorded")
	}
	if res.Errors != 0 {
		t.Fatalf("%d operation errors", res.Errors)
	}
}

// TestUnknownEngine: a bad engine name fails fast, before any socket is
// bound.
func TestUnknownEngine(t *testing.T) {
	if _, err := Run(Config{Engine: "no-such-engine"}); err == nil {
		t.Fatal("want error for unknown engine")
	}
}

// TestTopologyValidated: a topology outside the engine's fault model is a
// named error before any socket is bound, not a panic in the engine's
// constructor (byzaso needs n > 3f).
func TestTopologyValidated(t *testing.T) {
	_, err := Run(Config{Engine: "byzaso", N: 5, F: 2})
	if err == nil || !strings.Contains(err.Error(), "n > 3f") {
		t.Fatalf("byzaso n=5 f=2: err=%v, want the registry's n > 3f error", err)
	}
}
