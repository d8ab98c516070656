package chaos

import (
	"fmt"
	"math/rand"
	"path/filepath"

	"mpsnap/internal/cluster"
	"mpsnap/internal/core"
	"mpsnap/internal/engine"
	_ "mpsnap/internal/engine/all" // register every snapshot engine
	"mpsnap/internal/harness"
	"mpsnap/internal/history"
	"mpsnap/internal/monitor"
	"mpsnap/internal/obs"
	"mpsnap/internal/rt"
	"mpsnap/internal/sim"
	"mpsnap/internal/svc"
	"mpsnap/internal/wal"
)

// Config parameterizes one chaos run.
type Config struct {
	// N nodes with resilience bound F (n > 2f; n > 3f for Byzantine
	// engines). With Shards, N and F are each shard's.
	N, F int
	// Engine selects the snapshot engine by registry name ("eqaso",
	// "byzaso", "sso", "acr", "fastsnap", ...; default "eqaso").
	Engine string
	// Seed drives schedule generation, fault randomness, and the
	// workload. On the sim backend the entire run is a deterministic
	// function of the seed.
	Seed int64
	// Duration is the workload length in virtual ticks (rt.TicksPerD
	// ticks per D). Clients stop invoking new operations past it.
	Duration rt.Ticks
	// Mix is the fault mix; zero value means defaultMix.
	Mix Mix
	// Churn switches the run to the churn schedule (generateChurn):
	// sustained rolling crash→restart cycles over the WAL recovery path
	// (durable engines; flap-only otherwise), single-node membership
	// flaps, lagging-node delay windows, and a bursty hot-segment /
	// scan-storm workload. Mix is ignored, and the streaming invariant
	// monitor is armed automatically. Not compatible with Service.
	Churn bool
	// Monitor arms the streaming invariant monitor (internal/monitor): it
	// consumes operations as they complete and checks validity, scan
	// containment, base comparability, frontier non-regression, prefix
	// closure, and per-client self-inclusion on a sliding window. On the
	// first violation it dumps its window transcript (and the obs trace,
	// when TraceDir is armed) for post-mortem. Implied by Churn.
	Monitor bool
	// MonitorWindow overrides the monitor's sliding window in ticks
	// (default monitor.DefaultWindow; negative means unbounded).
	MonitorWindow rt.Ticks
	// ScanRatio is the fraction of scans in the workload (default 0.5).
	ScanRatio float64
	// Service routes all client operations through the internal/svc
	// concurrent service layer (UPDATE coalescing + SCAN sharing)
	// instead of calling the object directly. Sim backend only: on chan
	// and tcp a node's concurrent clients record BeginUpdateAs before svc
	// admission fixes the write order, so the history can rank two
	// updates opposite to their commit order.
	Service bool
	// Clients is the number of concurrent client threads per node
	// (default 1). Values above 1 require Service: the raw protocol
	// objects admit one operation at a time.
	Clients int
	// TraceDir, if non-empty, arms the observability trace (sim backend):
	// the run records operation lifecycles, protocol phases, and
	// fault-injection events into a ring buffer, and dumps them as JSONL
	// into this directory when the consistency check fails (always, with
	// TraceAlways). Result.TracePath names the dump. The dump is a
	// deterministic function of the seed, so a failing nightly run can be
	// replayed and diffed byte-for-byte.
	TraceDir string
	// TraceCap bounds the trace ring buffer (default 8192 events; oldest
	// events are evicted first).
	TraceCap int
	// TraceAlways dumps the trace even when the check passes.
	TraceAlways bool
	// Shards, if positive, runs the sharded store instead of one object:
	// Shards clusters of N nodes each behind the cluster routing layer
	// (see shards.go), each shard under its own Mix schedule. The check is
	// the cut validator's, in place of the history's.
	Shards int
	// ShardCrash, with Shards, crashes every member of that shard at 40%
	// of the run and restarts them from their WALs at 55%; negative for
	// none (0 names shard 0).
	ShardCrash int
	// ShardPartition, with Shards, isolates that whole shard from the
	// rest of the topology during [30%, 60%] of the run (the shard keeps
	// its internal quorum; only cross-shard routing is cut); negative for
	// none.
	ShardPartition int
	// forceCheckFail (test hook) overrides the checker verdict to
	// exercise the failure path: correct algorithms never fail the check,
	// so the dump-on-failure plumbing needs a forced failure to be
	// testable.
	forceCheckFail bool
	// monitorCorrupt (test hook) corrupts one scan completion on its way
	// to the monitor — blanks a segment whose writer completed an update
	// before the scan was invoked, a containment violation the monitor
	// must flag. The recorded history itself stays intact; only the
	// monitor's view lies, so the dump-on-violation plumbing is testable
	// against engines that never misbehave.
	monitorCorrupt bool
	// rebuildErr (test hook) fails every restart's node rebuild with this
	// error, so the failed-rebuild path is testable.
	rebuildErr error

	// info is the resolved registry entry, filled by normalize.
	info engine.Info
}

func (cfg *Config) normalize() error {
	if cfg.Engine == "" {
		cfg.Engine = "eqaso"
	}
	in, err := engine.Lookup(cfg.Engine)
	if err != nil {
		return fmt.Errorf("chaos: %w", err)
	}
	cfg.info = in
	if cfg.Mix == (Mix{}) {
		cfg.Mix = defaultMix()
	}
	if cfg.ScanRatio == 0 {
		cfg.ScanRatio = 0.5
	}
	if cfg.Clients == 0 {
		cfg.Clients = 1
	}
	if cfg.Clients < 0 {
		return fmt.Errorf("chaos: Clients must be positive, got %d", cfg.Clients)
	}
	if cfg.Clients > 1 && !cfg.Service {
		return fmt.Errorf("chaos: Clients=%d needs Service (raw objects admit one operation at a time)", cfg.Clients)
	}
	if cfg.Duration <= 0 {
		return fmt.Errorf("chaos: Duration must be positive")
	}
	if err := in.Validate(cfg.N, cfg.F); err != nil {
		return fmt.Errorf("chaos: %w", err)
	}
	if cfg.Mix.Restarts > 0 {
		if !in.Durable() {
			return fmt.Errorf("chaos: restarts need a WAL-capable engine (%s), not %q", durableNames(), cfg.Engine)
		}
		if cfg.Service {
			return fmt.Errorf("chaos: restarts drive direct clients; Service mode is not supported")
		}
	}
	if cfg.Churn {
		if cfg.Service {
			return fmt.Errorf("chaos: churn drives direct clients; Service mode is not supported")
		}
		cfg.Monitor = true
	}
	if cfg.monitorCorrupt && !cfg.Monitor {
		return fmt.Errorf("chaos: monitorCorrupt needs the monitor armed")
	}
	if cfg.Shards < 0 {
		return fmt.Errorf("chaos: Shards must not be negative, got %d", cfg.Shards)
	}
	if cfg.Shards > 0 {
		return cfg.shardLimits()
	}
	return nil
}

// Schedule validates cfg and returns the fault schedule Run injects.
func (cfg Config) Schedule() (Schedule, error) {
	if err := cfg.normalize(); err != nil {
		return Schedule{}, err
	}
	return cfg.schedule(), nil
}

// schedule generates the run's fault schedule: churn when armed, the
// per-shard merge on a sharded run, the Mix schedule otherwise. Churn
// restarts ride the rolling-restart lane only when the engine can recover
// from a WAL; other engines get flap-only churn.
func (cfg *Config) schedule() Schedule {
	switch {
	case cfg.Churn:
		return generateChurn(cfg.Seed, cfg.N, cfg.F, cfg.Duration, cfg.info.Durable())
	case cfg.Shards > 0:
		return cfg.shardSchedule()
	}
	return generate(cfg.Seed, cfg.N, cfg.F, cfg.Duration, cfg.Mix)
}

// durableNames lists the registered engines that can recover from a WAL.
func durableNames() string {
	out := ""
	for _, name := range engine.Names() {
		if engine.MustLookup(name).Durable() {
			if out != "" {
				out += " or "
			}
			out += name
		}
	}
	return out
}

// checker returns the consistency check for the engine: linearizability
// for the atomic objects, sequential consistency for the SSO family.
func (cfg *Config) checker() func(*history.History) *history.Report {
	if cfg.info.Sequential {
		return (*history.History).CheckSequentiallyConsistent
	}
	return (*history.History).CheckLinearizable
}

// newEngine builds one engine on r: fresh, logging to f when f is set, or
// (recover) rebuilt from f's durable prefix replayed under fold (nil for
// the plain last-value segments). GC stays on: recovery under pruning is
// the point.
func (cfg *Config) newEngine(r rt.Runtime, f *wal.MemFile, fold core.Fold, recover bool) engine.Engine {
	switch {
	case f == nil:
		return cfg.info.New(r)
	case recover:
		st := wal.Recover(f.Durable(), r.N(), r.ID(), fold)
		return cfg.info.Recover(r, st, wal.NewWriter(f, WALBatch), true)
	}
	e := cfg.info.New(r)
	e.(engine.Durable).AttachWAL(wal.NewWriter(f, WALBatch), true)
	return e
}

// Result is the outcome of one chaos run; its JSON is what `aso chaos
// -json` emits per backend.
type Result struct {
	Backend string `json:"backend"`
	Engine  string `json:"engine"`
	// OK: the check passed — no violations, the monitor (if armed) clean,
	// and on a sharded run at least one validated cut.
	OK bool `json:"ok"`
	// Schedule is the injected fault schedule; two runs with equal
	// ScheduleHash injected the exact same faults.
	Schedule     Schedule `json:"schedule"`
	ScheduleHash string   `json:"scheduleHash"`
	// Ops counts the recorded operations; Pending those left without a
	// response by a crashed or force-aborted client.
	Ops     int `json:"ops"`
	Pending int `json:"pending"`
	// Cuts is a sharded run's workload and cut tally (nil otherwise).
	Cuts *Cuts `json:"cuts,omitempty"`
	// Violations are the checker's complaints — the history checker's, or
	// on a sharded run the cut validator's (empty when OK).
	Violations []string `json:"violations,omitempty"`
	// Blocked lists operations still stuck at the end of the run (their
	// nodes were crash-aborted so the run could terminate), each naming the
	// node and the blocked wait predicate.
	Blocked []string `json:"blocked,omitempty"`
	// HistoryHash fingerprints the recorded history JSON; on the sim
	// backend it is identical across runs with the same seed.
	HistoryHash string     `json:"historyHash,omitempty"`
	Stats       *sim.Stats `json:"stats,omitempty"` // sim backend only
	Faults      FaultTally `json:"faults"`
	// TracePath names the JSONL trace dump ("" when tracing was off or the
	// run passed without TraceAlways); TraceDropped counts the events ring
	// wraparound evicted before it.
	TracePath    string `json:"tracePath,omitempty"`
	TraceDropped uint64 `json:"traceDropped,omitempty"`
	// MonitorStats / MonitorViolations are the streaming invariant
	// monitor's verdict (nil / empty when it was off); MonitorPath and
	// MonitorTracePath name its first-violation dumps: the window
	// transcript and the obs trace ring at that moment.
	MonitorStats      *monitor.Stats `json:"monitor,omitempty"`
	MonitorViolations []string       `json:"monitorViolations,omitempty"`
	MonitorPath       string         `json:"monitorPath,omitempty"`
	MonitorTracePath  string         `json:"monitorTracePath,omitempty"`
	// Hist is the recorded history; Check its consistency verdict
	// (linearizability, or sequential consistency for the SSO family).
	// Both are nil on a sharded run.
	Hist  *history.History `json:"-"`
	Check *history.Report  `json:"-"`
}

// FaultTally counts, on every backend, the messages a run's fault windows
// dropped (a loss window, or a corruption that did not decode), held (sent
// across a partition cut, or on chan and tcp into a spike window) and
// corrupted.
type FaultTally struct {
	Dropped int64 `json:"dropped"`
	Held    int64 `json:"held"`
	Corrupt int64 `json:"corrupt"`
}

// grace is how long past the workload deadline an in-flight operation may
// take before it is considered stuck: generous against the worst measured
// op latencies (≤ ~10D) plus spike delays.
const grace = 30 * rt.TicksPerD

// WALBatch is the WAL fsync batch of chaos runs and `aso node -wal`: foreign
// values, checkpoints and prunes ride a batch (a vouch or a prune is
// performed once a sync has covered its record), while an own value forces
// an explicit sync before it is disseminated regardless.
const WALBatch = 8

// maxSleep is the maximum client think time between operations, in ticks.
const maxSleep = 3 * rt.TicksPerD / 2

// clientMix is one client's workload shape.
type clientMix struct {
	scanP    float64  // probability an iteration scans
	maxSleep rt.Ticks // think-time cap between iterations
	bursty   bool     // iterations repeat their op 1..6 times back to back
}

// clientMix returns the mix for a client of the given node. Outside churn
// it is the configured ratio and think time (a sharded client's own).
// Churn's adversarial workload: every third node hammers its own segment
// (hot-segment update storms), the rest lean into scan storms, and all
// clients fire bursts of back-to-back operations with halved think time.
func (c *Config) clientMix(node int) clientMix {
	switch {
	case c.Shards > 0:
		return clientMix{scanP: c.ScanRatio, maxSleep: shardMaxSleep}
	case !c.Churn:
		return clientMix{scanP: c.ScanRatio, maxSleep: maxSleep}
	}
	m := clientMix{scanP: 1 - (1-c.ScanRatio)/3, maxSleep: maxSleep / 2, bursty: true}
	if node%3 == 0 {
		m.scanP = c.ScanRatio / 3
	}
	return m
}

// next draws one iteration: whether it scans, and how many times the
// operation repeats.
func (m clientMix) next(rng *rand.Rand) (scans bool, burst int) {
	scans = rng.Float64() < m.scanP
	burst = 1
	if m.bursty {
		burst = 1 + rng.Intn(6)
	}
	return scans, burst
}

// think draws the pause after an iteration.
func (m clientMix) think(rng *rand.Rand) rt.Ticks {
	return rt.Ticks(rng.Int63n(int64(m.maxSleep) + 1))
}

// clientSeed seeds the workload stream of a node's client: cid tells a
// node's concurrent clients apart, inc its incarnations, so a node
// restarted twice never replays the same stream.
func (c *Config) clientSeed(node, cid, inc int) int64 {
	return c.Seed*1009 + int64(node) + 7919*int64(cid) + 104729*int64(inc)
}

// runClient is the one client loop: until the deadline, draw an iteration
// from mix, run its operations, and think. op performs one operation and
// reports false once the client must stop (its node died under it).
func runClient(w world, deadline rt.Ticks, mix clientMix, rng *rand.Rand, op func(scan bool) bool) {
	for w.Now() < deadline {
		scans, burst := mix.next(rng)
		for b := 0; b < burst; b++ {
			if !op(scans) {
				return
			}
			if w.Now() >= deadline {
				return
			}
		}
		if w.Sleep(mix.think(rng)) != nil {
			return
		}
	}
}

// stack is the node software a run drives on every node: one snapshot
// object (plainStack) or the sharded store (shardStack). Run owns
// everything else — the schedule, the WAL files, the restart sequence and
// the end of the run — and never learns which stack it got.
type stack struct {
	// build constructs node id's stack on its runtime — fresh, or
	// (recover) with its engine replayed from f — and returns the node's
	// handler and the engine's rejoin handle. f is nil when the run has no
	// restarts.
	build func(id int, f *wal.MemFile, recover bool) (rt.Handler, engine.Rejoiner, error)
	// start spawns node id's threads for incarnation inc: at boot, and
	// after a restart once the node has rejoined.
	start func(id, inc int)
	// drain, if set, closes the service threads once the clients are done.
	drain func()
	// finish fills the result's workload fields and violations.
	finish func(res *Result)
}

// Run executes one chaos run on backend: "sim" (the deterministic
// simulator — schedule, workload and recorded history are a function of
// cfg alone, so a failing seed replays byte-identically), "chan"
// (in-process goroutine links) or "tcp" (a TCP loopback cluster, all
// nodes in this process). The same seeded Schedule is injected on every
// backend; on the real transports only the fault schedule and the check
// verdict reproduce, not the exact history.
func Run(cfg Config, backend string) (*Result, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	if backend != "sim" && cfg.Service {
		return nil, fmt.Errorf("chaos: Service mode runs on the sim backend only (on chan and tcp a client records its update before svc admission fixes the write order)")
	}
	sched := cfg.schedule()
	res := &Result{Backend: backend, Engine: cfg.Engine, Schedule: sched, ScheduleHash: sched.Hash()}
	wc := worldConfig{N: cfg.N, F: cfg.F, Seed: cfg.Seed, Byzantine: cfg.info.Byzantine}
	var health *cluster.Health
	if cfg.Shards > 0 {
		wc.N = cfg.Shards * cfg.N
		health = cluster.NewHealth(wc.N)
		wc.Observer = health
	}
	w, err := newWorld(backend, wc)
	if err != nil {
		return nil, err
	}
	defer w.Close()

	// Observability trace (sim only: the dump is worth keeping because it
	// is a function of the seed): op/phase events from the objects and
	// service fronts, fault events from the simulator's tracer. Raw
	// send/deliver traffic is deliberately NOT recorded — it would evict
	// the op events a failure post-mortem actually needs from the ring.
	var tr *obs.Trace
	if sw, ok := w.(*simWorld); ok && cfg.TraceDir != "" {
		capacity := cfg.TraceCap
		if capacity <= 0 {
			capacity = 8192
		}
		tr = obs.NewTrace(capacity)
		sw.SetTracer(func(te sim.TraceEvent) {
			switch te.Kind {
			case "crash", "restart", "partition", "heal", "drop", "corrupt", "hold":
				tr.Sys(te.T, te.Kind, te.Src, te.Dst, te.Msg)
			}
		})
	}

	var s stack
	if cfg.Shards > 0 {
		s = shardStack(&cfg, w, health)
	} else {
		s = plainStack(&cfg, w, tr, res)
	}

	// Crash-recovery: each node persists to an in-memory WAL (with GC of
	// the value log below the globally-vouched checkpoint); a restart
	// event replays the durable prefix, rejoins, and restores the node's
	// threads.
	files := make([]*wal.MemFile, wc.N)
	for id := range files {
		if sched.HasRestarts() {
			files[id] = wal.NewMemFile()
		}
		h, _, err := s.build(id, files[id], false)
		if err != nil {
			return nil, err
		}
		w.SetHandler(id, h)
	}
	for id := range files {
		s.start(id, 0)
	}

	// Restart: replay the victim's durable WAL prefix (the unsynced tail
	// died with the process), rebuild the node on the same runtime, un-crash
	// it, and hand the new incarnation to a thread of its own, which first
	// rejoins (re-disseminating retained values above the recovered
	// frontier and requesting the delta it missed) and then restores the
	// node's threads. The rejoin thread counts as a client, so the run
	// cannot end under it. A rebuild that fails leaves the victim crashed
	// and fails the run.
	incarnation := make([]int, wc.N)
	var rebuildErr error
	restart := func(id int) {
		if files[id] == nil || !w.Crashed(id) {
			return
		}
		files[id].Crash()
		h, rj, err := s.build(id, files[id], true)
		if err == nil {
			err = cfg.rebuildErr
		}
		if err != nil {
			rebuildErr = err
			return
		}
		w.Restart(id, h)
		incarnation[id]++
		inc := incarnation[id]
		w.GoClient(fmt.Sprintf("rejoin-%d.%d", id, inc), id, func() {
			if rj != nil {
				rj.Rejoin()
			}
			s.start(id, inc)
		})
	}
	inject(w, sched.Events, restart)

	// The wall world joins its restart driver before returning, so
	// rebuildErr is read after its last write.
	res.Blocked, err = w.Run(cfg.Duration, grace, s.drain)
	s.finish(res)
	if err == nil {
		err = rebuildErr
	}
	if err != nil {
		return res, err
	}
	if sw, ok := w.(*simWorld); ok {
		st := sw.Stats()
		res.Stats = &st
	}
	res.Faults = w.Tally()
	if cfg.forceCheckFail {
		res.Violations = []string{"forced failure (chaos test hook)"}
		if res.Check != nil {
			res.Check = &history.Report{Violations: res.Violations}
		}
	}
	res.OK = len(res.Violations) == 0 && len(res.MonitorViolations) == 0 && (res.Cuts == nil || res.Cuts.OK > 0)
	if tr != nil && (!res.OK || cfg.TraceAlways) {
		path := filepath.Join(cfg.TraceDir,
			fmt.Sprintf("chaos-%s-seed%d-%s.jsonl", cfg.Engine, cfg.Seed, res.ScheduleHash))
		if err := tr.DumpJSONL(path); err != nil {
			return res, fmt.Errorf("chaos: %w", err)
		}
		res.TracePath = path
		res.TraceDropped = tr.Dropped()
	}
	return res, nil
}

// plainStack is one snapshot object per node: every client records its
// operations, and the history is checked for the engine's consistency
// condition (with the streaming monitor alongside when armed). In Service
// mode a node's clients share a svc.Service whose worker runs on a
// dedicated node thread.
func plainStack(cfg *Config, w world, tr *obs.Trace, res *Result) stack {
	rec := history.NewRecorder(cfg.N)
	// Streaming invariant monitor: consumes completions as the recorder
	// produces them; the first violation dumps the monitor transcript and
	// the obs ring as they stand at that moment.
	mon := attachMonitor(cfg, res.Schedule, rec, tr, res)
	objs := make([]svc.Object, cfg.N)
	var services []*svc.Service
	s := stack{
		build: func(id int, f *wal.MemFile, recover bool) (rt.Handler, engine.Rejoiner, error) {
			e := cfg.newEngine(w.Runtime(id), f, nil, recover)
			if so, ok := e.(interface{ SetObserver(rt.Observer) }); ok && tr != nil {
				so.SetObserver(tr)
			}
			objs[id] = e
			rj, _ := e.(engine.Rejoiner)
			return e, rj, nil
		},
		finish: func(res *Result) {
			res.setHistory(rec.History())
			res.Check = cfg.checker()(res.Hist)
			res.Violations = res.Check.Violations
			harvestMonitor(mon, res)
		},
	}
	if cfg.Service {
		s.drain = func() {
			for _, sv := range services {
				sv.Close()
			}
		}
	}
	// Client c of incarnation inc records as cid c+inc and writes
	// "v<node>-<seq>" (cid 0) or "v<node>.<cid>-<seq>", so values stay
	// unique across a node's clients and incarnations. Restarts drive
	// direct clients only, so a restarted node's one client takes the
	// incarnation count as its cid.
	s.start = func(i, inc int) {
		front := objs[i]
		if cfg.Service {
			opts := svc.Options{Mode: svc.ModeFor(cfg.Engine)}
			if tr != nil {
				opts.Observer = tr
			}
			sv := svc.New(w.Runtime(i), objs[i], opts)
			services, front = append(services, sv), sv
			w.GoService(fmt.Sprintf("svc-%d", i), i, func() {
				_ = sv.Serve() // returns on drain (nil) or node crash
			})
		}
		for c := 0; c < cfg.Clients; c++ {
			cid := c + inc
			name, prefix := fmt.Sprintf("client-%d", i), fmt.Sprintf("v%d-", i)
			if cid > 0 {
				name, prefix = fmt.Sprintf("client-%d.%d", i, cid), fmt.Sprintf("v%d.%d-", i, cid)
			}
			seed := cfg.clientSeed(i, c, inc)
			w.GoClient(name, i, func() {
				rng := rand.New(rand.NewSource(seed))
				seq := 0
				runClient(w, cfg.Duration, cfg.clientMix(i), rng, func(scan bool) bool {
					if scan {
						op := rec.BeginScanAs(i, cid, w.Now())
						snap, err := front.Scan()
						if err != nil {
							return false // node crashed: op stays pending
						}
						op.EndScan(harness.SnapStrings(snap), w.Now())
						return true
					}
					seq++
					v := fmt.Sprintf("%s%d", prefix, seq)
					op := rec.BeginUpdateAs(i, cid, v, w.Now())
					if err := front.Update([]byte(v)); err != nil {
						return false
					}
					op.End(w.Now())
					return true
				})
			})
		}
	}
	return s
}
