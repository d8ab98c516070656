package chaos

import (
	"reflect"
	"strings"
	"testing"

	"mpsnap/internal/engine"
	"mpsnap/internal/harness"
	"mpsnap/internal/history"
	"mpsnap/internal/rt"
	"mpsnap/internal/sim"
)

// TestSeedDeterminism: the sim backend is a pure function of the seed —
// two runs, plain or sharded, produce equal results (history, schedule,
// message counters, cut tally), and a different seed changes the faults.
func TestSeedDeterminism(t *testing.T) {
	sharded := shardConfig(3)
	sharded.ShardCrash = 1
	for _, cfg := range []Config{{N: 5, F: 2, Seed: 42, Duration: 60 * rt.TicksPerD}, sharded} {
		run := func() *Result {
			res, err := Run(cfg, "sim")
			if err != nil {
				t.Fatal(err)
			}
			if !res.OK {
				t.Fatalf("shards=%d: check failed: %v", cfg.Shards, res.Violations)
			}
			return res
		}
		a, b := run(), run()
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("shards=%d: same seed, different results:\n%+v\n%+v", cfg.Shards, a, b)
		}
		if a.Stats.MsgsTotal == 0 || (a.Cuts != nil && a.Cuts.GlobalScans == 0) {
			t.Fatalf("shards=%d: no traffic to compare", cfg.Shards)
		}
		cfg.Seed++
		if c := run(); c.ScheduleHash == a.ScheduleHash {
			t.Fatalf("shards=%d: seeds %d and %d generated the same schedule %s", cfg.Shards, cfg.Seed-1, cfg.Seed, a.ScheduleHash)
		}
	}
}

// TestScanSpansPartition is the harness's reason to exist in miniature: a
// SCAN invoked just before a partition cuts its node into the minority
// island must block across the partition, complete after heal, and the
// whole history — including updates completed inside the majority island
// while the cut was up — must linearize.
func TestScanSpansPartition(t *testing.T) {
	const healAt = 15 * rt.TicksPerD
	c := harness.Build(sim.Config{N: 5, F: 2, Seed: 11}, func(r rt.Runtime) (rt.Handler, harness.Object) {
		nd := engine.MustLookup("eqaso").New(r)
		return nd, nd
	})
	w := c.W
	// The partition lands at t=1: the scan's outgoing requests (sent at
	// t=0) are already in flight and still delivered, but every response
	// from the majority island is sent after the cut and held.
	w.After(1, func() { w.Partition([]int{0, 1}, []int{2, 3, 4}) })
	w.After(healAt, func() { w.Heal() })
	c.Client(0, func(o *harness.OpRunner) {
		if _, err := o.Scan(); err != nil {
			t.Errorf("scan: %v", err)
		}
	})
	for i := 2; i < 5; i++ {
		c.Client(i, func(o *harness.OpRunner) {
			for k := 0; k < 2; k++ {
				if _, err := o.Update(); err != nil {
					t.Errorf("update node %d: %v", o.Node(), err)
				}
			}
		})
	}
	h, err := c.MustLinearizable()
	if err != nil {
		t.Fatal(err)
	}
	var scan *history.Op
	duringCut := 0
	for _, op := range h.Ops {
		if op.Type == history.Scan && op.Node == 0 {
			scan = op
		}
		if op.Type == history.Update && !op.Pending() && op.Resp < healAt {
			duringCut++
		}
	}
	if scan == nil || scan.Pending() {
		t.Fatal("node 0's scan did not complete")
	}
	if scan.Resp < healAt {
		t.Fatalf("scan completed at t=%d, before the heal at t=%d — the minority island answered it", scan.Resp, healAt)
	}
	if duringCut == 0 {
		t.Fatal("no update completed inside the majority island while the partition was up")
	}
}

// TestRunSimAllAlgs: every supported object survives the default fault
// mix with its consistency condition intact.
func TestRunSimAllAlgs(t *testing.T) {
	for _, tc := range []struct {
		alg  string
		n, f int
	}{
		{"eqaso", 5, 2},
		{"byzaso", 7, 2},
		{"sso", 5, 2},
	} {
		t.Run(tc.alg, func(t *testing.T) {
			res, err := Run(Config{N: tc.n, F: tc.f, Engine: tc.alg, Seed: 5, Duration: 50 * rt.TicksPerD}, "sim")
			if err != nil {
				t.Fatal(err)
			}
			if !res.Check.OK {
				t.Fatalf("check failed: %v", res.Check.Violations)
			}
			if len(res.Hist.Ops) == 0 {
				t.Fatal("empty history")
			}
		})
	}
}

// TestRunTransportChan: the same schedule machinery drives the real
// channel transport; the verdict (not the exact history) must hold.
func TestRunTransportChan(t *testing.T) {
	res, err := Run(Config{N: 5, F: 2, Seed: 3, Duration: 30 * rt.TicksPerD}, "chan")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Check.OK {
		t.Fatalf("check failed: %v", res.Check.Violations)
	}
	if len(res.Hist.Ops) == 0 {
		t.Fatal("empty history")
	}
}

// TestRunTransportTCP: a real TCP loopback cluster under the same faults.
func TestRunTransportTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("tcp loopback cluster is slow in -short mode")
	}
	res, err := Run(Config{N: 5, F: 2, Seed: 3, Duration: 30 * rt.TicksPerD}, "tcp")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Check.OK {
		t.Fatalf("check failed: %v", res.Check.Violations)
	}
}

// TestConfigValidation rejects the classic mistakes, and what a sharded
// run cannot do, each for its reason.
func TestConfigValidation(t *testing.T) {
	shards := func(set func(*Config)) Config {
		c := shardConfig(1)
		set(&c)
		return c
	}
	for _, tc := range []struct {
		cfg  Config
		want string
	}{
		{Config{N: 4, F: 2, Duration: 1000}, "n > 2f"},
		{Config{N: 6, F: 2, Engine: "byzaso", Duration: 1000}, "n > 3f"},
		{Config{N: 5, F: 2, Engine: "paxos", Duration: 1000}, "unknown engine"},
		{Config{N: 5, F: 2}, "Duration"},
		{shards(func(c *Config) { c.Mix.CorruptWindows = 1 }), "-corrupts is not supported with -shards"},
		{shards(func(c *Config) { c.Churn = true }), "-churn and -monitor are not supported with -shards"},
		{shards(func(c *Config) { c.Monitor = true }), "-churn and -monitor are not supported with -shards"},
		{shards(func(c *Config) { c.TraceDir = "traces" }), "-trace-dir is not supported with -shards"},
		{shards(func(c *Config) { c.ShardCrash = 2 }), "-shard-crash 2 out of range"},
		{shards(func(c *Config) { c.ShardPartition = 5 }), "-shard-partition 5 out of range"},
		{shards(func(c *Config) { c.Engine = "sso" }), "sequentially consistent"},
		{shards(func(c *Config) { c.Engine, c.Mix.Restarts, c.ShardCrash = "acr", 0, 0 }), "WAL-capable"},
	} {
		if _, err := Run(tc.cfg, "sim"); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("config %+v: err = %v, want one containing %q", tc.cfg, err, tc.want)
		}
	}
}
