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

// TestRoutedCallTimesOutOnIdleNode: a routed write to a shard whose every
// member is down must fail with ErrNoContact after its timeouts — on a
// node where nothing else is happening. The call's deadline sits inside a
// wait predicate, and no message or other client will ever make the
// runtime look at it again; chaos runs never saw the stall because other
// clients' traffic kept waking the waiter.
func TestRoutedCallTimesOutOnIdleNode(t *testing.T) {
	const shards, n, f = 2, 3, 1
	m := ContiguousMap(shards, n, f, 0)
	net := transport.NewChanNet(transport.ChanConfig{N: m.NumNodes(), F: f, D: time.Millisecond})
	defer net.Close()
	nodes := make([]*Node, m.NumNodes())
	var serving sync.WaitGroup
	serve := func(fn func() error) {
		serving.Add(1)
		go func() { defer serving.Done(); _ = fn() }()
	}
	for id := range nodes {
		nd, err := NewNode(net.Runtime(id), Config{
			Map:     m,
			Timeout: 5 * rt.TicksPerD,
			NewEngine: func(shard int, r rt.Runtime) (rt.Handler, svc.Object) {
				e := engine.MustLookup("eqaso").New(r)
				return e, e
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[id] = nd
		net.SetHandler(id, nd.Handler())
		for _, s := range nd.Services() {
			serve(s.Serve)
		}
		serve(nd.ServeRouter)
	}
	defer func() {
		for _, nd := range nodes {
			nd.Close()
		}
		serving.Wait()
	}()
	var key string
	for i := 0; ; i++ {
		key = fmt.Sprintf("k%d", i)
		if _, s := nodes[0].route(key); s == 1 {
			break
		}
	}
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
