package cluster

import (
	"cmp"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"

	"mpsnap/internal/chaos"
	"mpsnap/internal/engine"
	_ "mpsnap/internal/engine/all" // register every snapshot engine
	"mpsnap/internal/rt"
	"mpsnap/internal/svc"
	"mpsnap/internal/wal"
)

// RunConfig parameterizes one cluster chaos run: Shards independent
// EQ-ASO clusters of N nodes each (contiguous placement), every node
// running the full cluster stack, workload clients writing marked
// causal chains across shards, and one coordinator per shard taking
// validated GlobalScans.
type RunConfig struct {
	// Shards × N topology, each shard tolerating F of its members.
	Shards, N, F int
	// Seed derives everything: per-shard fault schedules, workload RNGs,
	// simulator delays.
	Seed int64
	// Duration of the workload in virtual ticks.
	Duration rt.Ticks
	// Mix is the per-shard fault mix: each shard gets its own
	// chaos.Generate schedule (seed offset by the shard index) remapped
	// onto its members. Mid-broadcast flags are ignored (cluster
	// broadcasts are loops of sends by construction).
	Mix chaos.Mix
	// ScanRatio is each client's probability of scanning instead of
	// updating (default 0.2).
	ScanRatio float64
	// GlobalScanEvery is each coordinator's period between validated
	// GlobalScans (default 25D).
	GlobalScanEvery rt.Ticks
	// CrashShard, if >= 0, crashes every member of that shard at 40% of
	// the run and restarts them (WAL recovery) at 55%.
	CrashShard int
	// PartitionShard, if >= 0, isolates that whole shard from the rest
	// of the topology during [30%, 60%] of the run (the shard keeps
	// internal quorum; only cross-shard routing is cut).
	PartitionShard int
	// Engine selects the snapshot engine every shard runs, by registry
	// name (default "eqaso"). Sequentially-consistent engines are
	// rejected: the cut validator assumes linearizable shard scans.
	Engine string

	// info is the resolved registry entry of Engine, filled by normalize.
	info engine.Info
}

// Each node runs one workload thread, which thinks for at most maxSleep
// between operations and writes a private pool of keysPerClient keys.
const (
	maxSleep      = 2 * rt.TicksPerD
	keysPerClient = 8
)

// DefaultRunConfig returns the standard run shape with the whole-shard
// faults disabled (their zero values would target shard 0).
func DefaultRunConfig() RunConfig {
	return RunConfig{
		Shards: 2, N: 3, F: 1, Duration: 200 * rt.TicksPerD,
		Mix: chaos.DefaultMix(), CrashShard: -1, PartitionShard: -1,
	}
}

func (c *RunConfig) normalize() error {
	if c.Shards <= 0 {
		c.Shards = 2
	}
	if c.N <= 0 {
		c.N = 3
	}
	if c.Duration <= 0 {
		c.Duration = 200 * rt.TicksPerD
	}
	if c.ScanRatio == 0 {
		c.ScanRatio = 0.2
	}
	if c.GlobalScanEvery <= 0 {
		c.GlobalScanEvery = 25 * rt.TicksPerD
	}
	if c.CrashShard >= c.Shards {
		return fmt.Errorf("cluster: -shard-crash %d out of range (shards=%d)", c.CrashShard, c.Shards)
	}
	if c.PartitionShard >= c.Shards {
		return fmt.Errorf("cluster: -shard-partition %d out of range (shards=%d)", c.PartitionShard, c.Shards)
	}
	if c.Engine == "" {
		c.Engine = "eqaso"
	}
	in, err := engine.Lookup(c.Engine)
	if err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	if in.Sequential {
		return fmt.Errorf("cluster: engine %q is sequentially consistent; shards need linearizable scans for cut validation", c.Engine)
	}
	if err := in.Validate(c.N, c.F); err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	if (c.Mix.Restarts > 0 || c.CrashShard >= 0) && !in.Durable() {
		return fmt.Errorf("cluster: the run has restart faults but engine %q has no WAL recovery", c.Engine)
	}
	c.info = in
	return nil
}

// Report is one cluster chaos run's outcome. Violations (consistency)
// must be empty on every seed; CutErrs (availability: a cut that could
// not be assembled while shards were down or unreachable) are expected
// under whole-shard faults.
type Report struct {
	Shards      int   `json:"shards"`
	Nodes       int   `json:"nodes"`
	Updates     int64 `json:"updates"`
	UpdateErrs  int64 `json:"updateErrs"`
	Scans       int64 `json:"scans"`
	ScanErrs    int64 `json:"scanErrs"`
	GlobalScans int64 `json:"globalScans"`
	CutsOK      int64 `json:"cutsOK"`
	// CutRepairs counts cuts that needed at least one closure-repair
	// round before validating.
	CutRepairs int64    `json:"cutRepairs"`
	CutErrs    int64    `json:"cutErrs"`
	SkewMaxD   float64  `json:"skewMaxD"`
	SkewMeanD  float64  `json:"skewMeanD"`
	Violations []string `json:"violations,omitempty"`
	Blocked    []string `json:"blocked,omitempty"`
}

// OK reports whether the run saw no consistency violations and at least
// one validated cut.
func (r *Report) OK() bool { return len(r.Violations) == 0 && r.CutsOK > 0 }

func (r *Report) String() string {
	return fmt.Sprintf("shards=%d nodes=%d updates=%d(+%d err) scans=%d(+%d err) cuts=%d ok=%d repaired=%d err=%d skew(max=%.1fD mean=%.1fD) violations=%d blocked=%d",
		r.Shards, r.Nodes, r.Updates, r.UpdateErrs, r.Scans, r.ScanErrs,
		r.GlobalScans, r.CutsOK, r.CutRepairs, r.CutErrs, r.SkewMaxD, r.SkewMeanD,
		len(r.Violations), len(r.Blocked))
}

// shardSchedules generates one fault schedule per shard (each over the
// shard's local IDs) from the run seed.
func shardSchedules(cfg RunConfig) []chaos.Schedule {
	scheds := make([]chaos.Schedule, cfg.Shards)
	for s := 0; s < cfg.Shards; s++ {
		scheds[s] = chaos.Generate(cfg.Seed+int64(s)*9973, cfg.N, cfg.F, cfg.Duration, cfg.Mix)
	}
	return scheds
}

// remapEvents rewrites a shard-local schedule onto the shard's global
// member IDs. Mid-broadcast flags are dropped: the cluster stack never
// issues runtime broadcasts (shard runtimes loop sends), so an armed
// mid-crash would only fire its fallback; a plain crash at the same tick
// is the equivalent fault. Corruption windows are dropped too: cluster
// runs have never injected wire corruption on any backend (aso chaos
// rejects -corrupts with -shards).
func remapEvents(evs []chaos.Event, members []int) []chaos.Event {
	out := make([]chaos.Event, 0, len(evs))
	for _, ev := range evs {
		ev.Mid = false
		switch ev.Kind {
		case chaos.EvCorruptOn, chaos.EvCorruptOff:
			continue
		case chaos.EvCrash, chaos.EvRestart:
			ev.Node = members[ev.Node]
		case chaos.EvDropOn, chaos.EvDropOff, chaos.EvSpikeOn, chaos.EvSpikeOff:
			ev.Src, ev.Dst = members[ev.Src], members[ev.Dst]
		case chaos.EvPartition:
			groups := make([][]int, len(ev.Groups))
			for g, island := range ev.Groups {
				mapped := make([]int, len(island))
				for j, l := range island {
					mapped[j] = members[l]
				}
				groups[g] = mapped
			}
			ev.Groups = groups
		}
		out = append(out, ev)
	}
	return out
}

// mergeSchedules flattens per-source event streams into one global
// stream. Partition state on every backend is replace-not-merge, so
// overlapping per-shard partition episodes would heal each other; the
// merge rewrites every partition/heal event into the union of all
// sources' active islands at that instant (and a heal only when no
// island remains).
func mergeSchedules(sources [][]chaos.Event) []chaos.Event {
	type tagged struct {
		ev  chaos.Event
		src int
	}
	var all []tagged
	for si, evs := range sources {
		for _, ev := range evs {
			all = append(all, tagged{ev: ev, src: si})
		}
	}
	// Stable sort by time (source order breaks ties).
	slices.SortStableFunc(all, func(a, b tagged) int { return cmp.Compare(a.ev.At, b.ev.At) })
	active := make(map[int][][]int)
	union := func() [][]int {
		var groups [][]int
		for si := range sources { // deterministic source order
			groups = append(groups, active[si]...)
		}
		return groups
	}
	out := make([]chaos.Event, 0, len(all))
	for _, t := range all {
		switch t.ev.Kind {
		case chaos.EvPartition:
			active[t.src] = t.ev.Groups
			out = append(out, chaos.Event{At: t.ev.At, Kind: chaos.EvPartition, Groups: union()})
		case chaos.EvHeal:
			delete(active, t.src)
			if u := union(); len(u) > 0 {
				out = append(out, chaos.Event{At: t.ev.At, Kind: chaos.EvPartition, Groups: u})
			} else {
				out = append(out, chaos.Event{At: t.ev.At, Kind: chaos.EvHeal})
			}
		default:
			out = append(out, t.ev)
		}
	}
	return out
}

// globalEvents builds the full fault stream for a run: the per-shard
// schedules remapped onto their members, plus the whole-shard crash/
// restart and whole-shard partition knobs, partition-aggregated.
func globalEvents(cfg RunConfig, m ShardMap, scheds []chaos.Schedule) []chaos.Event {
	sources := make([][]chaos.Event, 0, cfg.Shards+2)
	for s := 0; s < cfg.Shards; s++ {
		sources = append(sources, remapEvents(scheds[s].Events, m.Members[s]))
	}
	if cfg.CrashShard >= 0 {
		var evs []chaos.Event
		crashAt := cfg.Duration * 40 / 100
		restartAt := cfg.Duration * 55 / 100
		for _, id := range m.Members[cfg.CrashShard] {
			evs = append(evs,
				chaos.Event{At: crashAt, Kind: chaos.EvCrash, Node: id},
				chaos.Event{At: restartAt, Kind: chaos.EvRestart, Node: id})
		}
		sources = append(sources, evs)
	}
	if cfg.PartitionShard >= 0 {
		island := append([]int(nil), m.Members[cfg.PartitionShard]...)
		sources = append(sources, []chaos.Event{
			{At: cfg.Duration * 30 / 100, Kind: chaos.EvPartition, Groups: [][]int{island}},
			{At: cfg.Duration * 60 / 100, Kind: chaos.EvHeal},
		})
	}
	return mergeSchedules(sources)
}

// nodeBuilder wires one node's engine construction for both fresh boot
// and WAL recovery, capturing the rejoin handle.
type nodeBuilder struct {
	cfg     RunConfig
	m       ShardMap
	health  *Health
	files   []*wal.MemFile
	rejoins []engine.Rejoiner
}

func newNodeBuilder(cfg RunConfig, m ShardMap, health *Health) *nodeBuilder {
	total := m.NumNodes()
	b := &nodeBuilder{cfg: cfg, m: m, health: health,
		files: make([]*wal.MemFile, total), rejoins: make([]engine.Rejoiner, total)}
	for i := range b.files {
		b.files[i] = wal.NewMemFile()
	}
	return b
}

// nodeConfig builds the cluster Config for node id. On recovery the
// engine replays the durable WAL prefix under the record fold, which
// rebuilds this member's segment — pruned writes included — from the WAL
// alone; the service options are the defaults on every backend.
func (b *nodeBuilder) nodeConfig(id int, recover bool) Config {
	c := Config{Map: b.m, Health: b.health}
	c.NewEngine = func(shard int, r rt.Runtime) (rt.Handler, svc.Object) {
		in := b.cfg.info
		if !recover {
			nd := in.New(r)
			if d, ok := nd.(engine.Durable); ok {
				d.AttachWAL(wal.NewWriter(b.files[id], chaos.WALBatch), true)
			}
			b.rejoins[id] = nil
			return nd, nd
		}
		f := b.files[id]
		st := wal.Recover(f.Durable(), r.N(), r.ID(), svc.RecordFold)
		nd := in.Recover(r, st, wal.NewWriter(f, chaos.WALBatch), true)
		b.rejoins[id] = nd.(engine.Rejoiner)
		return nd, nd
	}
	return c
}

// markClient is the cross-shard workload: a writer issuing marked
// updates over a private key pool, each mark chaining to the writer's
// previous acked write, interleaved with keyed scans.
type markClient struct {
	writer  string
	rng     *rand.Rand
	keys    int
	lastKey string
	lastSeq int64
	seq     int64
}

func newMarkClient(writer string, seed int64, keys int) *markClient {
	return &markClient{writer: writer, rng: rand.New(rand.NewSource(seed)), keys: keys}
}

func (c *markClient) key() string {
	return fmt.Sprintf("%s/k%d", c.writer, c.rng.Intn(c.keys))
}

// step performs one workload operation; it returns false when the node
// died under the client (stop the loop).
func (c *markClient) step(nd *Node, scanRatio float64, rep *Report, lock func(func())) bool {
	if c.rng.Float64() < scanRatio {
		_, err := nd.Scan(c.key())
		lock(func() {
			if err != nil {
				rep.ScanErrs++
			} else {
				rep.Scans++
			}
		})
		return err == nil || !errors.Is(err, rt.ErrCrashed)
	}
	c.seq++
	mk := Mark{Writer: c.writer, Seq: c.seq, PrevKey: c.lastKey, PrevSeq: c.lastSeq}
	key := c.key()
	err := nd.Update(key, mk.Encode())
	lock(func() {
		if err != nil {
			rep.UpdateErrs++
		} else {
			rep.Updates++
		}
	})
	if err != nil {
		// The write may still have committed (lost ack); reusing the
		// sequence number for a different key is safe — both marks chain
		// to the same already-committed predecessor.
		c.seq--
		return !errors.Is(err, rt.ErrCrashed)
	}
	c.lastKey, c.lastSeq = key, c.seq
	return true
}

// recordCut folds one coordinator GlobalScan outcome into the report.
func recordCut(rep *Report, cut *Cut, err error, lock func(func())) {
	lock(func() {
		rep.GlobalScans++
		if err != nil {
			rep.CutErrs++
			return
		}
		if cut.Rounds > 1 {
			rep.CutRepairs++
		}
		if vio := cut.Validate(); len(vio) > 0 {
			rep.Violations = append(rep.Violations, vio...)
			return
		}
		rep.CutsOK++
		skew := float64(cut.Skew()) / float64(rt.TicksPerD)
		if skew > rep.SkewMaxD {
			rep.SkewMaxD = skew
		}
		rep.SkewMeanD += skew // sum; finalized by the runner
	})
}

// finishSkew converts the accumulated skew sum into a mean.
func (r *Report) finishSkew() {
	if r.CutsOK > 0 {
		r.SkewMeanD /= float64(r.CutsOK)
	}
}

// buildNode constructs one node's cluster stack; tests swap it to force a
// failed restart rebuild.
var buildNode = NewNode

// Run executes one cluster chaos run on backend ("sim", "chan" or "tcp"):
// Shards×N nodes, per-shard fault schedules (plus the whole-shard knobs),
// the marked cross-shard workload, and per-shard coordinators taking
// closure-repaired GlobalScans checked by Cut.Validate. On the
// simulator the whole run is a function of the seed; on the real
// transports (one virtual D = chaos.DReal) the reproducible artifact is
// the fault schedule and the validator verdict, not the exact op counts.
func Run(cfg RunConfig, backend string) (*Report, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	m := ContiguousMap(cfg.Shards, cfg.N, cfg.F, DefaultVNodes)
	total := m.NumNodes()
	health := NewHealth(total)
	w, err := chaos.NewWorld(backend, chaos.WorldConfig{N: total, F: cfg.F, Seed: cfg.Seed, Observer: health})
	if err != nil {
		return nil, err
	}
	defer w.Close()
	b := newNodeBuilder(cfg, m, health)
	rep := &Report{Shards: cfg.Shards, Nodes: total}
	deadline := cfg.Duration

	// One mutex guards the report, the node table and buildErr: on the real
	// transports clients, coordinators and the restart driver are concurrent
	// goroutines (on the simulator it is never contended).
	var mu sync.Mutex
	lock := func(fn func()) { mu.Lock(); fn(); mu.Unlock() }
	nodes := make([]*Node, total)
	node := func(id int) *Node { mu.Lock(); defer mu.Unlock(); return nodes[id] }
	var buildErr error

	spawnServe := func(id int, nd *Node) {
		for si, s := range nd.Services() {
			w.GoService(fmt.Sprintf("svc-%d.%d", id, si), id, func() { _ = s.Serve() })
		}
	}
	client := func(id int, inc int64) func() {
		writer := fmt.Sprintf("w%dc0", id)
		if inc > 0 {
			writer = fmt.Sprintf("w%dc0.%d", id, inc)
		}
		mc := newMarkClient(writer, cfg.Seed*1009+int64(id)+104729*inc, keysPerClient)
		return func() {
			for w.Now() < deadline {
				if !mc.step(node(id), cfg.ScanRatio, rep, lock) {
					return
				}
				if w.Now() >= deadline {
					return
				}
				if w.Sleep(rt.Ticks(mc.rng.Int63n(int64(maxSleep)+1))) != nil {
					return
				}
			}
		}
	}
	// The coordinator jitters its period from its own seeded stream, so
	// the shards' cuts drift against each other instead of marching in
	// lock-step.
	coordinator := func(id int) func() {
		return func() {
			rng := rand.New(rand.NewSource(cfg.Seed*31 + int64(id)))
			for w.Now() < deadline {
				jitter := rt.Ticks(rng.Int63n(int64(cfg.GlobalScanEvery/4) + 1))
				if w.Sleep(cfg.GlobalScanEvery+jitter) != nil {
					return
				}
				if w.Now() >= deadline {
					return
				}
				cut, err := node(id).GlobalScanClosed()
				if err != nil && errors.Is(err, rt.ErrCrashed) {
					return
				}
				recordCut(rep, cut, err, lock)
			}
		}
	}
	spawnClients := func(id int, inc int64) {
		w.GoClient(fmt.Sprintf("client-%d.0", id), id, client(id, inc))
		s := id / cfg.N
		if id == m.Members[s][cfg.N-1] { // last member coordinates its shard
			w.GoClient(fmt.Sprintf("coord-%d", s), id, coordinator(id))
		}
	}

	for id := 0; id < total; id++ {
		nd, err := buildNode(w.Runtime(id), b.nodeConfig(id, false))
		if err != nil {
			return nil, err
		}
		nodes[id] = nd
		w.SetHandler(id, nd.Handler())
	}
	for id := 0; id < total; id++ {
		spawnServe(id, nodes[id])
		spawnClients(id, 0)
	}

	// Restart: replay the durable WAL prefix into a fresh engine, rebuild
	// the whole node stack (router state dies with the incarnation; the
	// member's segment lives in the replayed log), rejoin, and
	// respawn the serving threads and clients under a new incarnation. The
	// rejoin thread counts as a client, so the run cannot end under it.
	incarnation := make([]int64, total)
	restart := func(id int) {
		if !w.Crashed(id) {
			return
		}
		b.files[id].Crash()
		nd, err := buildNode(w.Runtime(id), b.nodeConfig(id, true))
		if err != nil {
			lock(func() { buildErr = err })
			return
		}
		lock(func() { nodes[id] = nd })
		w.Restart(id, nd.Handler())
		incarnation[id]++
		inc, rj := incarnation[id], b.rejoins[id]
		w.GoClient(fmt.Sprintf("rejoin-%d.%d", id, inc), id, func() {
			if rj != nil {
				rj.Rejoin()
			}
			spawnServe(id, nd)
			if w.Now() < deadline {
				spawnClients(id, inc)
			}
		})
	}
	chaos.Inject(w, globalEvents(cfg, m, shardSchedules(cfg)), restart)

	// Draining closes every node, so drained workers exit.
	rep.Blocked, err = w.Run(deadline, chaos.Grace, func() {
		for id := range nodes {
			node(id).Close()
		}
	})
	if err == nil {
		err = buildErr
	}
	if err != nil {
		return rep, err
	}
	rep.finishSkew()
	return rep, nil
}
