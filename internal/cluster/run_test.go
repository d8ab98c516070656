package cluster_test

import (
	"reflect"
	"testing"

	"mpsnap/internal/chaos"
	"mpsnap/internal/rt"
)

// TestClusterRunSimDeterministic: on the simulator a sharded chaos run of
// the cluster stack — op counts, cuts, skew, message counters, with a
// whole-shard crash and WAL restart — is a pure function of the seed, and
// a different seed changes the faults.
func TestClusterRunSimDeterministic(t *testing.T) {
	cfg := chaos.Config{
		Shards: 2, N: 3, F: 1, Seed: 3, Duration: 150 * rt.TicksPerD, ScanRatio: 0.2,
		Mix:        chaos.Mix{Crashes: 1, Partitions: 1, DropWindows: 1, SpikeWindows: 1, Restarts: 1},
		ShardCrash: 1, ShardPartition: -1,
	}
	run := func() *chaos.Result {
		res, err := chaos.Run(cfg, "sim")
		if err != nil {
			t.Fatal(err)
		}
		if !res.OK {
			t.Fatalf("check failed: %v", res.Violations)
		}
		return res
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different results:\n%+v\n%+v", a, b)
	}
	if a.Cuts.Updates == 0 || a.Cuts.GlobalScans == 0 {
		t.Fatalf("no traffic to compare (%v)", a.Cuts)
	}
	cfg.Seed++
	if c := run(); c.ScheduleHash == a.ScheduleHash {
		t.Fatalf("seeds %d and %d generated the same schedule %s", cfg.Seed-1, cfg.Seed, a.ScheduleHash)
	}
}
