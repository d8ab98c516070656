package cluster

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"mpsnap/internal/chaos"
	"mpsnap/internal/rt"
)

// RunChan executes one cluster chaos run over the in-process channel
// transport: the same topology, fault stream, marked workload, and
// validated GlobalScans as RunSim, but on real goroutine scheduling with
// wall-clock delays (one virtual D = chaos.DReal). Real scheduling is
// not deterministic — the reproducible artifact is the fault schedule
// and the validator verdict, not the exact op counts.
func RunChan(cfg RunConfig) (*Report, error) { return runWall(cfg, "chan") }

// RunTCP executes one cluster chaos run over a TCP loopback mesh (all
// nodes in this process), with the fault stream injected through the
// same chaos.Net wrapper as the chan backend. Restarts — including the
// whole-shard crash scenario, whose victims recover — are chan/sim only:
// a TCP restart is a process restart.
func RunTCP(cfg RunConfig) (*Report, error) { return runWall(cfg, "tcp") }

// runWall is the shared wall-clock runner behind RunChan and RunTCP.
func runWall(cfg RunConfig, backend string) (*Report, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	tickReal := chaos.DReal / time.Duration(rt.TicksPerD)
	m := ContiguousMap(cfg.Shards, cfg.N, cfg.F, cfg.VNodes)
	total := m.NumNodes()
	health := NewHealth(total)

	if backend == "tcp" && (cfg.Mix.Restarts > 0 || cfg.CrashShard >= 0) {
		return nil, fmt.Errorf("cluster: restarts (incl. the recovering whole-shard crash) run on sim and chan only (a tcp restart is a process restart)")
	}
	// The tcp mesh shares one epoch: cut frontiers compare Now() across
	// nodes, so construction skew must not show up as clock skew.
	be, err := chaos.DialBackend(backend, total, cfg.F, cfg.Seed, health)
	if err != nil {
		return nil, err
	}
	defer be.Close()
	unders := be.Runtimes
	nt := chaos.NewNet(cfg.Seed+3, unders, be.Crash)

	scheds := shardSchedules(cfg)
	events := globalEvents(cfg, m, scheds)
	b := newNodeBuilder(cfg, m, health)
	validator := NewCutValidator(ValidatorOptions{CheckPlacement: true, RequireMarks: true})
	rep := &Report{Shards: cfg.Shards, Nodes: total}

	var mu sync.Mutex
	lock := func(fn func()) { mu.Lock(); fn(); mu.Unlock() }
	nodes := make([]*Node, total)
	getNode := func(id int) *Node { mu.Lock(); defer mu.Unlock(); return nodes[id] }
	setNode := func(id int, nd *Node) { mu.Lock(); nodes[id] = nd; mu.Unlock() }

	start := time.Now()
	now := func() rt.Ticks { return rt.Ticks(time.Since(start) / tickReal) }

	// Guarded counter instead of a WaitGroup: restarts spawn clients
	// mid-run, and WaitGroup.Add concurrent with Wait is undefined.
	finished := make(chan struct{})
	var cliMu sync.Mutex
	active := 0
	reserve := func(k int) bool {
		cliMu.Lock()
		defer cliMu.Unlock()
		if active < 0 { // already drained to zero once; run is over
			return false
		}
		active += k
		return true
	}
	release := func() {
		cliMu.Lock()
		active--
		if active == 0 {
			active = -1
			close(finished)
		}
		cliMu.Unlock()
	}

	spawnServe := func(nd *Node) {
		for _, s := range nd.Services() {
			s := s
			go func() { _ = s.Serve() }()
		}
		go func() { _ = nd.ServeRouter() }()
	}
	isCoordinator := func(id int) bool { return id == m.Members[id/cfg.N][cfg.N-1] }
	clientLoop := func(id, cid int, inc int64) {
		defer release()
		writer := fmt.Sprintf("w%dc%d", id, cid)
		if inc > 0 {
			writer = fmt.Sprintf("w%dc%d.%d", id, cid, inc)
		}
		mc := newMarkClient(writer, cfg.Seed*1009+int64(id)+7919*int64(cid)+104729*inc, cfg.KeysPerClient)
		for now() < cfg.Duration {
			if !mc.step(getNode(id), cfg.ScanRatio, rep, lock) {
				return
			}
			if now() >= cfg.Duration {
				return
			}
			time.Sleep(time.Duration(mc.rng.Int63n(int64(cfg.MaxSleep)+1)) * tickReal)
		}
	}
	coordLoop := func(id int, inc int64) {
		defer release()
		period := time.Duration(cfg.GlobalScanEvery) * tickReal
		for now() < cfg.Duration {
			time.Sleep(period)
			if now() >= cfg.Duration {
				return
			}
			cut, err := getNode(id).GlobalScanClosed(validator, 0)
			if err != nil && errors.Is(err, rt.ErrCrashed) {
				return
			}
			recordCut(rep, validator, cut, err, lock)
		}
	}
	spawnClients := func(id int, inc int64) {
		k := cfg.Clients
		if isCoordinator(id) {
			k++
		}
		if !reserve(k) {
			return
		}
		for cid := 0; cid < cfg.Clients; cid++ {
			go clientLoop(id, cid, inc)
		}
		if isCoordinator(id) {
			go coordLoop(id, inc)
		}
	}

	for id := 0; id < total; id++ {
		nd, err := NewNode(nt.Runtime(id), b.nodeConfig(id, false))
		if err != nil {
			return nil, err
		}
		nodes[id] = nd
		be.SetHandler(id, nd.Handler())
	}

	if be.Restart != nil {
		incarnation := make([]int64, total)
		nt.OnRestart(func(id int) {
			if !nt.Crashed(id) || now() >= cfg.Duration {
				return
			}
			// Lock-step with the dead incarnation's last critical section
			// before touching its WAL (appends run under the node's mutex).
			unders[id].Atomic(func() {})
			b.files[id].Crash()
			nd, err := NewNode(nt.Runtime(id), b.nodeConfig(id, true))
			if err != nil {
				return
			}
			setNode(id, nd)
			be.Restart(id, nd.Handler())
			nt.ClearCrashed(id)
			incarnation[id]++
			inc := incarnation[id]
			rj := b.rejoins[id]
			go func() {
				if rj != nil {
					rj.Rejoin()
				}
				spawnServe(nd)
				spawnClients(id, inc)
			}()
		})
	}

	done := make(chan struct{})
	defer close(done)
	nt.Apply(chaos.Schedule{Seed: cfg.Seed, N: total, F: cfg.F, Duration: cfg.Duration, Events: events}, tickReal, done)

	for id := 0; id < total; id++ {
		spawnServe(nodes[id])
	}
	for id := 0; id < total; id++ {
		spawnClients(id, 0)
	}

	abortAt := start.Add(time.Duration(cfg.Duration+clusterGrace) * tickReal)
	select {
	case <-finished:
	case <-time.After(time.Until(abortAt)):
		// An operation lost its quorum (drops, excess crashes): crash
		// every node so blocked waits release with rt.ErrCrashed.
		lock(func() {
			rep.Blocked = append(rep.Blocked, fmt.Sprintf(
				"%s: clients still blocked %v past deadline; crash-aborted all nodes",
				backend, time.Duration(clusterGrace)*tickReal))
		})
		nt.CrashAll()
		<-finished
	}
	for id := 0; id < total; id++ {
		getNode(id).Close()
	}
	rep.finishSkew()
	return rep, nil
}
