package chaos

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"mpsnap/internal/engine"
	"mpsnap/internal/harness"
	"mpsnap/internal/history"
	"mpsnap/internal/rt"
	"mpsnap/internal/transport"
	"mpsnap/internal/wal"
)

// DReal is the wall-clock duration standing in for one maximum message
// delay D on the real transports, so a Schedule's virtual times map to
// wall time uniformly across backends: ev.At ticks → ev.At·(DReal/TicksPerD).
const DReal = 10 * time.Millisecond

// tickReal is the wall-clock duration of one virtual tick.
const tickReal = DReal / time.Duration(rt.TicksPerD)

// TicksOf converts a wall-clock duration into virtual ticks under the
// DReal mapping, so "-duration 5s" means the same schedule on every
// backend.
func TicksOf(d time.Duration) rt.Ticks { return rt.Ticks(d / tickReal) }

// Backend is a real-time transport reduced to what the wall-clock runners
// (RunTransport here, the cluster runner in internal/cluster) drive:
// per-node runtimes plus crash, handler-install, restart and close hooks.
type Backend struct {
	Runtimes   []rt.Runtime
	Crash      func(id int)
	SetHandler func(id int, h rt.Handler)
	// Restart swaps a recovered node's handler in; nil on tcp, where a
	// restart is a process restart.
	Restart func(id int, h rt.Handler)
	Close   func()
}

// DialBackend brings up n nodes with D = DReal on "chan" (in-process
// goroutine links) or "tcp" (a loopback mesh, all nodes in this process,
// one shared epoch so Now() is comparable across nodes).
func DialBackend(name string, n, f int, seed int64, obs rt.Observer) (*Backend, error) {
	switch name {
	case "chan":
		cn := transport.NewChanNet(transport.ChanConfig{N: n, F: f, D: DReal, Seed: seed, Observer: obs})
		b := &Backend{Crash: cn.Crash, SetHandler: cn.SetHandler, Restart: cn.Restart, Close: cn.Close}
		for i := 0; i < n; i++ {
			b.Runtimes = append(b.Runtimes, cn.Runtime(i))
		}
		return b, nil
	case "tcp":
		nodes, err := transport.LoopbackMesh(n, transport.TCPConfig{F: f, D: DReal, Observer: obs})
		if err != nil {
			return nil, err
		}
		b := &Backend{
			Crash:      func(id int) { nodes[id].Crash() },
			SetHandler: func(id int, h rt.Handler) { nodes[id].SetHandler(h) },
			Close: func() {
				for _, nd := range nodes {
					nd.Close()
				}
			},
		}
		for _, nd := range nodes {
			b.Runtimes = append(b.Runtimes, nd.Runtime())
		}
		return b, nil
	}
	return nil, fmt.Errorf("chaos: unknown backend %q (want chan|tcp)", name)
}

// RunTransport executes one chaos run over a real transport backend:
// "chan" (in-process goroutine links) or "tcp" (a TCP loopback cluster,
// all n nodes in this process). The same seeded Schedule as RunSim is
// injected through a Net wrapper; operation times are recorded against
// one shared wall clock so the history's real-time order is meaningful
// across nodes. Real scheduling is not deterministic — only the fault
// schedule is — so the check verdict, not the exact history, is the
// reproducible artifact here.
func RunTransport(cfg Config, backend string) (*Result, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	if cfg.Service {
		return nil, fmt.Errorf("chaos: Service mode runs on the sim backend only (use RunSim)")
	}
	if cfg.Mix.Restarts > 0 && backend != "chan" {
		return nil, fmt.Errorf("chaos: restarts run on the sim and chan backends only (a tcp restart is a process restart)")
	}
	if cfg.Churn && cfg.info.Durable() && backend != "chan" {
		return nil, fmt.Errorf("chaos: churn on a durable engine includes restarts, which run on the sim and chan backends only")
	}
	check := cfg.checker()
	sched := cfg.schedule()
	res := &Result{Schedule: sched}

	be, err := DialBackend(backend, cfg.N, cfg.F, cfg.Seed, nil)
	if err != nil {
		return nil, err
	}
	defer be.Close()
	unders := be.Runtimes

	nt := NewNet(cfg.Seed+3, unders, be.Crash)
	nt.SetCorrupter(newCorrupter(cfg.Seed+4, cfg.info.Byzantine))
	objs := make([]object, cfg.N)
	var walFiles []*wal.MemFile
	if sched.HasRestarts() {
		walFiles = make([]*wal.MemFile, cfg.N)
	}
	for i := 0; i < cfg.N; i++ {
		h, obj := cfg.newNode(nt.Runtime(i))
		if walFiles != nil {
			walFiles[i] = wal.NewMemFile()
			obj.(engine.Durable).AttachWAL(wal.NewWriter(walFiles[i], chaosWALBatch), true)
		}
		be.SetHandler(i, h)
		objs[i] = obj
	}

	// One shared wall clock for all history events: per-node Now() values
	// are offset by each node's start time and would order concurrent
	// events inconsistently across nodes, producing false violations.
	rec := history.NewRecorder(cfg.N)
	mon := attachMonitor(&cfg, sched, rec, nil, res)
	start := time.Now()
	now := func() rt.Ticks { return rt.Ticks(time.Since(start) / tickReal) }

	// Client accounting is a guarded counter rather than a WaitGroup:
	// restarts spawn clients mid-run, and WaitGroup.Add concurrent with
	// Wait is undefined. The counter only reaches zero once no respawn can
	// reserve a slot (reservations are refused after it hits zero).
	finished := make(chan struct{})
	var cliMu sync.Mutex
	activeClients := cfg.N
	clientDone := func() {
		cliMu.Lock()
		activeClients--
		if activeClients == 0 {
			close(finished)
		}
		cliMu.Unlock()
	}
	// client is one node's workload loop. cid distinguishes a restarted
	// incarnation's values ("v<id>.<cid>-<seq>") from pre-crash ones;
	// rejoin, when set, runs before the first operation.
	client := func(i, cid int, obj object, rejoin engine.Rejoiner) {
		defer clientDone()
		if rejoin != nil {
			rejoin.Rejoin()
		}
		rng := rand.New(rand.NewSource(cfg.Seed*1009 + int64(i) + 104729*int64(cid)))
		mix := cfg.clientMix(i)
		seq := 0
		for now() < cfg.Duration {
			scans, burst := mix.next(rng)
			for b := 0; b < burst; b++ {
				if scans {
					p := rec.BeginScanAs(i, cid, now())
					snap, err := obj.Scan()
					if err != nil {
						return // crashed: op stays pending
					}
					p.EndScan(harness.SnapStrings(snap), now())
				} else {
					seq++
					v := fmt.Sprintf("v%d-%d", i, seq)
					if cid > 0 {
						v = fmt.Sprintf("v%d.%d-%d", i, cid, seq)
					}
					p := rec.BeginUpdateAs(i, cid, v, now())
					if err := obj.Update([]byte(v)); err != nil {
						return
					}
					p.End(now())
				}
				if now() >= cfg.Duration {
					return
				}
			}
			time.Sleep(time.Duration(mix.think(rng)) * tickReal)
		}
	}

	// Crash-recovery: replay the victim's durable WAL prefix, rebuild the
	// node, swap it into the transport (crash flag and handler change under
	// one lock), and respawn its client — which rejoins before resuming the
	// workload. Runs on the Apply goroutine, so restarts are serialized.
	// Each incarnation gets its own cid so repeated restarts of one node
	// neither replay the same RNG stream nor reuse value names.
	if walFiles != nil {
		incarnation := make([]int, cfg.N)
		nt.OnRestart(func(id int) {
			if !nt.Crashed(id) || now() >= cfg.Duration {
				return
			}
			// Reserve a client slot up front so the run cannot be declared
			// finished while the node is being rebuilt.
			cliMu.Lock()
			if activeClients == 0 {
				cliMu.Unlock()
				return
			}
			activeClients++
			cliMu.Unlock()
			// Lock-step with the dead incarnation's last critical section
			// before touching its WAL file (all appends run under the
			// transport node's mutex; the node is crashed, so no new ones).
			unders[id].Atomic(func() {})
			f := walFiles[id]
			f.Crash()
			st := wal.Recover(f.Durable(), cfg.N, id)
			h, obj, rj := cfg.recoverNode(nt.Runtime(id), st, wal.NewWriter(f, chaosWALBatch))
			be.Restart(id, h)
			nt.ClearCrashed(id)
			incarnation[id]++
			go client(id, incarnation[id], obj, rj)
		})
	}

	done := make(chan struct{})
	defer close(done)
	nt.Apply(sched, tickReal, done)

	for i := 0; i < cfg.N; i++ {
		go client(i, 0, objs[i], nil)
	}

	abortAt := start.Add(time.Duration(cfg.Duration+graceTicks) * tickReal)
	select {
	case <-finished:
	case <-time.After(time.Until(abortAt)):
		// An operation lost its quorum (drops, excess crashes): crash
		// every node so blocked waits release with rt.ErrCrashed and the
		// stuck operations end the run as pending.
		res.Blocked = append(res.Blocked,
			fmt.Sprintf("transport/%s: clients still blocked %v past deadline; crash-aborted all nodes", backend, time.Duration(graceTicks)*tickReal))
		nt.CrashAll()
		<-finished
	}

	h := rec.History()
	res.Hist = h
	res.NetDrops = nt.Drops()
	res.NetHeld = nt.Holds()
	res.NetCorrupt = nt.Corrupts()
	res.Check = check(h)
	harvestMonitor(mon, res)
	return res, nil
}
