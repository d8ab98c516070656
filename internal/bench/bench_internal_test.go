package bench

import "testing"

// TestSqrtKProbeGrows: the probe latency under chains is nondecreasing-ish
// in k (allowing 1D slack for base-cost noise) — the experiment's core
// claim in test form.
func TestSqrtKProbeGrows(t *testing.T) {
	small, _, err := SqrtKProbe(EQASO, 5, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	big, L, err := SqrtKProbe(EQASO, 35, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	if L < 5 {
		t.Fatalf("expected a long chain for k=16, got L=%d", L)
	}
	if big < small+1.5 {
		t.Fatalf("chains should stretch the probe: k=0 %.1fD vs k=16 %.1fD", small, big)
	}
}

// TestSSOScanIsFree: the SSO run reports exactly zero scan latency.
func TestSSOScanIsFree(t *testing.T) {
	res, err := Run(Config{Algo: SSOFast, N: 5, F: 2, OpsPerNode: 3, ScanRatio: 0.6, Seed: 2, Check: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.WorstScan != 0 || res.MeanScan != 0 {
		t.Fatalf("sso scans must be free: %+v", res)
	}
	if res.WorstUpd <= 0 {
		t.Fatalf("updates must cost something: %+v", res)
	}
}

// TestFigure2Driver: the bench replay returns the paper's op6 outcome.
func TestFigure2Driver(t *testing.T) {
	wait, snap, err := Figure2()
	if err != nil {
		t.Fatal(err)
	}
	if wait < 80 {
		t.Fatalf("op6 should have blocked, waited only %d ticks", wait)
	}
	if len(snap) != 3 || snap[0] != "u" || snap[1] != "w" || snap[2] != "v" {
		t.Fatalf("op6 snapshot = %v, want [u w v]", snap)
	}
}

// TestRunChecksHistories: Check:true actually validates (a healthy run
// passes; the flag is what the drivers rely on).
func TestRunChecksHistories(t *testing.T) {
	for _, a := range []Algo{EQASO, Delporte} {
		res, err := Run(Config{Algo: a, N: 5, F: 2, OpsPerNode: 2, ScanRatio: 0.5, Seed: 3, Check: true})
		if err != nil {
			t.Fatalf("%s: %v", a, err)
		}
		if !res.CheckPassed || res.Ops == 0 || res.Msgs == 0 {
			t.Fatalf("%s: %+v", a, res)
		}
	}
}

// TestRunLAProbeBothKinds covers the lattice-agreement probe runner.
func TestRunLAProbeBothKinds(t *testing.T) {
	for _, eq := range []bool{true, false} {
		worst, err := RunLAProbe(eq, 7, 2, 1)
		if err != nil {
			t.Fatal(err)
		}
		if worst <= 0 {
			t.Fatalf("eq=%v: probe latency %f", eq, worst)
		}
	}
}
