package cluster

import (
	"errors"
	"reflect"
	"sync/atomic"
	"testing"

	"mpsnap/internal/chaos"
	"mpsnap/internal/rt"
)

// testRunConfig is a chaos run small enough for the test suite: 2 shards
// of 3, crashes with WAL restarts, a partition episode, and loss/delay
// windows per shard.
func testRunConfig(seed int64) RunConfig {
	cfg := DefaultRunConfig()
	cfg.Seed = seed
	cfg.Duration = 150 * rt.TicksPerD
	cfg.Mix = chaos.Mix{Crashes: 1, Partitions: 1, DropWindows: 1, SpikeWindows: 1, Restarts: 1}
	cfg.GlobalScanEvery = 15 * rt.TicksPerD
	return cfg
}

// TestRunSimSeeds runs the cluster chaos harness across several seeds:
// every validated cut must be consistent (no violations), and each run
// must produce at least one validated cut and real traffic.
func TestRunSimSeeds(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		cfg := testRunConfig(seed)
		rep, err := Run(cfg, "sim")
		if err != nil {
			t.Fatalf("seed %d: %v (report: %v)", seed, err, rep)
		}
		if len(rep.Violations) > 0 {
			t.Errorf("seed %d: cut violations: %v", seed, rep.Violations)
		}
		if rep.CutsOK == 0 {
			t.Errorf("seed %d: no validated cuts (report: %v)", seed, rep)
		}
		if rep.Updates == 0 || rep.Scans == 0 {
			t.Errorf("seed %d: no traffic (report: %v)", seed, rep)
		}
		t.Logf("seed %d: %v", seed, rep)
	}
}

// TestRunSimShardCrash crashes all of shard 1 mid-run and restarts it
// from WALs; cuts must stay consistent throughout (failures to assemble
// a cut while the shard is down are availability, not violations).
func TestRunSimShardCrash(t *testing.T) {
	cfg := testRunConfig(5)
	cfg.Duration = 200 * rt.TicksPerD
	cfg.Mix = chaos.Mix{} // the whole-shard fault is the event under test
	cfg.CrashShard = 1
	rep, err := Run(cfg, "sim")
	if err != nil {
		t.Fatalf("Run: %v (report: %v)", err, rep)
	}
	if len(rep.Violations) > 0 {
		t.Errorf("violations under shard crash: %v", rep.Violations)
	}
	if rep.CutsOK == 0 {
		t.Errorf("no validated cuts (report: %v)", rep)
	}
	t.Logf("%v", rep)
}

// TestRunSimShardPartition isolates all of shard 0 from the rest of the
// topology for a window; cross-shard cuts fail during the window and
// recover after heal, always consistently.
func TestRunSimShardPartition(t *testing.T) {
	cfg := testRunConfig(6)
	cfg.Duration = 200 * rt.TicksPerD
	cfg.Mix = chaos.Mix{}
	cfg.PartitionShard = 0
	rep, err := Run(cfg, "sim")
	if err != nil {
		t.Fatalf("Run: %v (report: %v)", err, rep)
	}
	if len(rep.Violations) > 0 {
		t.Errorf("violations under shard partition: %v", rep.Violations)
	}
	if rep.CutsOK == 0 {
		t.Errorf("no validated cuts (report: %v)", rep)
	}
	t.Logf("%v", rep)
}

// TestClusterRunSimDeterministic: on the simulator the cluster run — op
// counts, cuts, skew, blocked waits — is a pure function of the seed.
func TestClusterRunSimDeterministic(t *testing.T) {
	cfg := testRunConfig(3)
	cfg.CrashShard = 1
	a, err := Run(cfg, "sim")
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg, "sim")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different reports:\n%v\n%v", a, b)
	}
	if a.Updates == 0 || a.GlobalScans == 0 {
		t.Fatalf("no traffic to compare (report: %v)", a)
	}
}

// TestRestartRebuildFailureIsReported: a restart whose node rebuild fails
// leaves the victim crashed, and the run must say so on every backend
// rather than finish green one node short.
func TestRestartRebuildFailureIsReported(t *testing.T) {
	errRebuild := errors.New("rebuild refused (test)")
	defer func() { buildNode = NewNode }()
	for _, backend := range []string{"sim", "chan"} {
		cfg := testRunConfig(2)
		cfg.Duration = 60 * rt.TicksPerD
		cfg.Mix = chaos.Mix{Crashes: 1, Restarts: 1}
		// The first Shards×N builds boot the topology; any later one is a
		// restart rebuilding its victim.
		boot := int64(cfg.Shards * cfg.N)
		var builds atomic.Int64
		buildNode = func(r rt.Runtime, c Config) (*Node, error) {
			if builds.Add(1) > boot {
				return nil, errRebuild
			}
			return NewNode(r, c)
		}
		rep, err := Run(cfg, backend)
		if !errors.Is(err, errRebuild) {
			t.Errorf("%s: err = %v, want the rebuild error (report: %v)", backend, err, rep)
		}
		if builds.Load() <= boot {
			t.Errorf("%s: no restart reached the node builder (%d builds)", backend, builds.Load())
		}
	}
}
