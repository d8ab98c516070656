package cluster

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"mpsnap/internal/chaos"
	"mpsnap/internal/engine"
	"mpsnap/internal/rt"
	"mpsnap/internal/svc"
	"mpsnap/internal/transport"
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

// chanTopology brings map m up on the channel transport (1 D = 1 ms): every
// node runs cfg with eqaso engines. start(id) runs node id's shard workers —
// the only threads a node needs. Cleanup closes the nodes and waits for the
// started workers.
func chanTopology(t *testing.T, m ShardMap, cfg Config) (*transport.ChanNet, []*Node, func(id int)) {
	t.Helper()
	net := transport.NewChanNet(transport.ChanConfig{N: m.NumNodes(), F: m.F, D: time.Millisecond})
	t.Cleanup(net.Close)
	cfg.Map = m
	cfg.NewEngine = func(shard int, r rt.Runtime) (rt.Handler, svc.Object) {
		e := engine.MustLookup("eqaso").New(r)
		return e, e
	}
	nodes := make([]*Node, m.NumNodes())
	for id := range nodes {
		nd, err := NewNode(net.Runtime(id), cfg)
		if err != nil {
			t.Fatal(err)
		}
		nodes[id] = nd
		net.SetHandler(id, nd.Handler())
	}
	var serving sync.WaitGroup
	t.Cleanup(func() {
		for _, nd := range nodes {
			nd.Close()
		}
		serving.Wait()
	})
	return net, nodes, func(id int) {
		for _, s := range nodes[id].Services() {
			serving.Add(1)
			go func() { defer serving.Done(); _ = s.Serve() }()
		}
	}
}

// keysOn returns count distinct keys nd routes to shard.
func keysOn(nd *Node, shard, count int) []string {
	var keys []string
	for i := 0; len(keys) < count; i++ {
		k := fmt.Sprintf("k%d", i)
		if nd.ring.ShardFor(k) == shard {
			keys = append(keys, k)
		}
	}
	return keys
}

// TestRoutedCallTimesOutOnIdleNode: a routed write to a shard whose every
// member is down must fail with ErrNoContact after its timeouts — on a
// node where nothing else is happening. The call's deadline sits inside a
// wait predicate, and no message or other client will ever make the
// runtime look at it again; chaos runs never saw the stall because other
// clients' traffic kept waking the waiter.
func TestRoutedCallTimesOutOnIdleNode(t *testing.T) {
	m := ContiguousMap(2, 3, 1, 0)
	net, nodes, start := chanTopology(t, m, Config{Timeout: 5 * rt.TicksPerD})
	for id := range nodes {
		start(id)
	}
	key := keysOn(nodes[0], 1, 1)[0]
	for _, id := range m.Members[1] {
		net.Crash(id)
	}
	done := make(chan error, 1)
	go func() { done <- nodes[0].Update(key, []byte("v")) }()
	select {
	case err := <-done:
		if !errors.Is(err, ErrNoContact) {
			t.Errorf("Update = %v, want ErrNoContact", err)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("routed update still blocked after 3s with a 5ms timeout: nothing re-evaluates the deadline on an idle node")
	}
}
