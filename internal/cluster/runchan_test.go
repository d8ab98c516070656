package cluster

import (
	"testing"

	"mpsnap/internal/chaos"
	"mpsnap/internal/rt"
)

// TestRunChanSeeds runs the cluster chaos harness on the channel
// transport across several seeds (fewer and shorter than sim — these
// burn wall clock at DReal per virtual D).
func TestRunChanSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("chan chaos runs burn wall clock; skipped with -short")
	}
	seeds := []int64{1, 2, 3, 4}
	for _, seed := range seeds {
		cfg := DefaultRunConfig()
		cfg.Seed = seed
		cfg.Duration = 120 * rt.TicksPerD
		cfg.Mix = chaos.Mix{Crashes: 1, Partitions: 1, DropWindows: 1, SpikeWindows: 1, Restarts: 1}
		cfg.GlobalScanEvery = 15 * rt.TicksPerD
		rep, err := Run(cfg, "chan")
		if err != nil {
			t.Fatalf("seed %d: %v (report: %v)", seed, err, rep)
		}
		if len(rep.Violations) > 0 {
			t.Errorf("seed %d: cut violations: %v", seed, rep.Violations)
		}
		if rep.CutsOK == 0 {
			t.Errorf("seed %d: no validated cuts (report: %v)", seed, rep)
		}
		t.Logf("seed %d: %v", seed, rep)
	}
}

// TestRunTCPSmoke runs one cluster chaos run over the TCP loopback mesh:
// partitions and loss windows only (restarts are chan/sim-only — a TCP
// restart is a process restart, which Run rejects on tcp).
func TestRunTCPSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("tcp chaos runs burn wall clock; skipped with -short")
	}
	cfg := DefaultRunConfig()
	cfg.Seed = 11
	cfg.Duration = 100 * rt.TicksPerD
	cfg.Mix = chaos.Mix{Partitions: 1, DropWindows: 1}
	cfg.GlobalScanEvery = 15 * rt.TicksPerD
	rep, err := Run(cfg, "tcp")
	if err != nil {
		t.Fatalf("Run: %v (report: %v)", err, rep)
	}
	if len(rep.Violations) > 0 {
		t.Errorf("cut violations: %v", rep.Violations)
	}
	if rep.CutsOK == 0 {
		t.Errorf("no validated cuts (report: %v)", rep)
	}
	t.Logf("%v", rep)

	cfg.Mix = chaos.Mix{Crashes: 1, Restarts: 1}
	if _, err := Run(cfg, "tcp"); err == nil {
		t.Error("tcp accepted a restarting mix")
	}
	cfg.Mix = chaos.Mix{}
	cfg.CrashShard = 0
	if _, err := Run(cfg, "tcp"); err == nil {
		t.Error("tcp accepted a whole-shard crash (restarting) scenario")
	}
}
