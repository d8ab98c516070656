package chaos

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"mpsnap/internal/rt"
)

// The sharded-run tests share the TestShards prefix: `make test-cluster`
// repeats exactly them under the race detector on one and two Ps.

// shardConfig is a sharded run small enough for the test suite: 2 shards
// of 3, crashes with WAL restarts, a partition episode, and loss/delay
// windows per shard, no whole-shard episode.
func shardConfig(seed int64) Config {
	return Config{
		Shards: 2, N: 3, F: 1, Seed: seed, Duration: 150 * rt.TicksPerD, ScanRatio: 0.2,
		Mix:        Mix{Crashes: 1, Partitions: 1, DropWindows: 1, SpikeWindows: 1, Restarts: 1},
		ShardCrash: -1, ShardPartition: -1,
	}
}

// quietMix injects no per-shard faults (it is not the zero Mix, which
// would mean defaultMix): the whole-shard episode is the event under test.
var quietMix = Mix{DropProb: 0.25}

// requireCuts fails unless the sharded run validated at least one cut and
// found no violation.
func requireCuts(t *testing.T, what string, res *Result, err error) {
	t.Helper()
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if len(res.Violations) > 0 {
		t.Errorf("%s: cut violations: %v", what, res.Violations)
	}
	if res.Cuts.OK == 0 || !res.OK {
		t.Errorf("%s: no validated cut (%v)", what, res.Cuts)
	}
	t.Logf("%s: %v", what, res.Cuts)
}

// TestShardsSimSeeds: across several seeds, every validated cut is
// consistent, and each run validates at least one cut and carries real
// traffic.
func TestShardsSimSeeds(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		res, err := Run(shardConfig(seed), "sim")
		requireCuts(t, fmt.Sprintf("seed %d", seed), res, err)
		if res.Cuts.Updates == 0 || res.Cuts.Scans == 0 {
			t.Errorf("seed %d: no traffic (%v)", seed, res.Cuts)
		}
	}
}

// TestShardsSimShardCrashRecovers crashes all of shard 1 mid-run and
// restarts it from its WALs; cuts must stay consistent throughout
// (failures to assemble a cut while the shard is down are availability,
// not violations).
func TestShardsSimShardCrashRecovers(t *testing.T) {
	cfg := shardConfig(5)
	cfg.Duration, cfg.Mix, cfg.ShardCrash = 200*rt.TicksPerD, quietMix, 1
	res, err := Run(cfg, "sim")
	requireCuts(t, "shard crash", res, err)
	if !res.Schedule.HasRestarts() {
		t.Error("the schedule restarts no member")
	}
}

// TestShardsSimShardPartition isolates all of shard 0 from the rest of the
// topology for a window; cross-shard cuts fail during the window and
// recover after heal, always consistently.
func TestShardsSimShardPartition(t *testing.T) {
	cfg := shardConfig(6)
	cfg.Duration, cfg.Mix, cfg.ShardPartition = 200*rt.TicksPerD, quietMix, 0
	res, err := Run(cfg, "sim")
	requireCuts(t, "shard partition", res, err)
}

// TestShardsChanSeeds runs sharded chaos on the channel transport across
// several seeds (shorter than sim: these burn wall clock at dReal per
// virtual D).
func TestShardsChanSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("chan chaos runs burn wall clock; skipped with -short")
	}
	for seed := int64(1); seed <= 4; seed++ {
		cfg := shardConfig(seed)
		cfg.Duration = 120 * rt.TicksPerD
		res, err := Run(cfg, "chan")
		requireCuts(t, fmt.Sprintf("seed %d", seed), res, err)
	}
}

// TestShardsTCPSmoke runs sharded chaos over the TCP loopback mesh:
// partitions and loss windows, a restarting mix, and the whole-shard crash
// whose victims recover — an in-process tcp node restarts like a chan
// node.
func TestShardsTCPSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("tcp chaos runs burn wall clock; skipped with -short")
	}
	for name, set := range map[string]func(*Config){
		"partitions": func(c *Config) { c.Mix = Mix{Partitions: 1, DropWindows: 1} },
		"restarts":   func(c *Config) { c.Mix = Mix{Crashes: 1, Restarts: 1} },
		"shardcrash": func(c *Config) { c.Mix, c.ShardCrash = quietMix, 0 },
	} {
		t.Run(name, func(t *testing.T) {
			cfg := shardConfig(11)
			cfg.Duration = 100 * rt.TicksPerD
			set(&cfg)
			res, err := Run(cfg, "tcp")
			requireCuts(t, name, res, err)
		})
	}
}

// TestShardsRestartRebuildFailureIsReported: a restart whose node rebuild
// fails leaves the victim crashed, and the run must say so on every
// backend, for a plain and a sharded run alike, rather than finish green
// one node short.
func TestShardsRestartRebuildFailureIsReported(t *testing.T) {
	errRebuild := errors.New("rebuild refused (test)")
	sharded := shardConfig(2)
	plain := Config{N: 3, F: 1, Seed: 2}
	for _, cfg := range []Config{plain, sharded} {
		cfg.Duration, cfg.Mix, cfg.rebuildErr = 60*rt.TicksPerD, Mix{Crashes: 1, Restarts: 1}, errRebuild
		for _, backend := range []string{"sim", "chan"} {
			res, err := Run(cfg, backend)
			if !errors.Is(err, errRebuild) {
				t.Errorf("shards=%d %s: err = %v, want the rebuild error", cfg.Shards, backend, err)
			}
			if res == nil || !res.Schedule.HasRestarts() {
				t.Errorf("shards=%d %s: no restart reached the rebuild", cfg.Shards, backend)
			}
		}
	}
}

// TestShardsForcedFailure: the forced-failure hook fails a sharded run as
// it fails a plain one — the verdict, not the counters.
func TestShardsForcedFailure(t *testing.T) {
	cfg := shardConfig(3)
	cfg.forceCheckFail = true
	res, err := Run(cfg, "sim")
	if err != nil {
		t.Fatal(err)
	}
	if res.OK || len(res.Violations) != 1 {
		t.Fatalf("forced failure: OK=%v violations=%v", res.OK, res.Violations)
	}
	if res.Cuts == nil || res.Cuts.OK == 0 {
		t.Fatalf("forced failure lost the tally: %v", res.Cuts)
	}
}

// TestMergeSchedulesUnionsPartitions is the merge's property test over
// random per-shard schedules whose partition episodes overlap across
// shards and whose events tie across sources: after every partition or
// heal, the merged stream's islands are the union, in source order, of
// each source's active islands; a heal appears only when none remains;
// every other event keeps time order with ties in source order; and
// corrupt windows and mid-broadcast flags are gone.
func TestMergeSchedulesUnionsPartitions(t *testing.T) {
	const n = 3
	rng := rand.New(rand.NewSource(1))
	kinds := []EventKind{EvCrash, EvRestart, EvDropOn, EvDropOff, EvSpikeOn, EvSpikeOff, EvCorruptOn, EvCorruptOff}
	for trial := 0; trial < 500; trial++ {
		shards := 2 + rng.Intn(3)
		var sources [][]Event
		for s := 0; s < shards; s++ {
			var evs []Event
			// Serialized episodes within a shard, overlapping across shards.
			for at := rt.Ticks(rng.Intn(10)); at < 80; at += rt.Ticks(1 + rng.Intn(20)) {
				island := rng.Perm(n)[:1+rng.Intn(n-1)]
				heal := at + rt.Ticks(1+rng.Intn(15))
				evs = append(evs, Event{At: at, Kind: EvPartition, Groups: [][]int{island}}, Event{At: heal, Kind: EvHeal})
				at = heal
			}
			for k := rng.Intn(8); k > 0; k-- {
				ev := Event{At: rt.Ticks(rng.Intn(100)), Kind: kinds[rng.Intn(len(kinds))]}
				if ev.Kind == EvCrash || ev.Kind == EvRestart {
					ev.Node, ev.Mid = rng.Intn(n), rng.Intn(2) == 0
				} else {
					ev.Src, ev.Dst = rng.Intn(n), rng.Intn(n)
				}
				evs = append(evs, ev)
			}
			slices.SortStableFunc(evs, func(a, b Event) int { return int(a.At - b.At) })
			members := []int{s * n, s*n + 1, s*n + 2}
			remapped := remapEvents(evs, members)
			for _, ev := range remapped {
				if ev.Mid || ev.Kind == EvCorruptOn || ev.Kind == EvCorruptOff {
					t.Fatalf("trial %d: remap kept %+v", trial, ev)
				}
				ids := []int{ev.Src, ev.Dst}
				switch ev.Kind {
				case EvCrash, EvRestart:
					ids = []int{ev.Node}
				case EvPartition:
					ids = slices.Concat(ev.Groups...)
				case EvHeal:
					ids = nil
				}
				for _, id := range ids {
					if !slices.Contains(members, id) {
						t.Fatalf("trial %d: shard %d event %+v names node %d outside %v", trial, s, ev, id, members)
					}
				}
			}
			sources = append(sources, remapped)
		}
		merged := mergeSchedules(sources)

		// Expected order: stable by time, ties in source order.
		type tagged struct {
			ev  Event
			src int
		}
		var all []tagged
		for si, evs := range sources {
			for _, ev := range evs {
				all = append(all, tagged{ev, si})
			}
		}
		slices.SortStableFunc(all, func(a, b tagged) int { return int(a.ev.At - b.ev.At) })
		if len(merged) != len(all) {
			t.Fatalf("trial %d: merged %d events from %d", trial, len(merged), len(all))
		}
		active := make([][][]int, shards)
		for i, tg := range all {
			got := merged[i]
			if got.At != tg.ev.At {
				t.Fatalf("trial %d: event %d at %d, want %d", trial, i, got.At, tg.ev.At)
			}
			switch tg.ev.Kind {
			case EvPartition, EvHeal:
				active[tg.src] = nil
				if tg.ev.Kind == EvPartition {
					active[tg.src] = tg.ev.Groups
				}
				want := slices.Concat(active...)
				switch {
				case len(want) == 0 && got.Kind != EvHeal:
					t.Fatalf("trial %d: event %d is %+v, want a heal (no island remains)", trial, i, got)
				case len(want) > 0 && (got.Kind != EvPartition || !reflect.DeepEqual(got.Groups, want)):
					t.Fatalf("trial %d: event %d is %+v, want islands %v", trial, i, got, want)
				}
			default:
				if !reflect.DeepEqual(got, tg.ev) {
					t.Fatalf("trial %d: event %d is %+v, want %+v", trial, i, got, tg.ev)
				}
			}
		}
	}
}
