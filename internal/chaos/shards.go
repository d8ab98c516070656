package chaos

import (
	"cmp"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"

	"mpsnap/internal/cluster"
	"mpsnap/internal/engine"
	"mpsnap/internal/rt"
	"mpsnap/internal/svc"
	"mpsnap/internal/wal"
)

// A sharded run (Config.Shards > 0) drives the sharded store: Shards
// independent clusters of N nodes each (contiguous placement), every node
// running the full cluster stack (internal/cluster). Each node's one
// client writes marked causal chains across shards, and the last member of
// each shard coordinates: it takes a closure-repaired GlobalScan every
// globalScanEvery (plus up to a quarter of jitter, from its own seeded
// stream, so the shards' cuts drift against each other), and each cut is
// checked by Cut.Validate. A client thinks for at most shardMaxSleep
// between operations and writes a private pool of keysPerClient keys.
const (
	shardMaxSleep   = 2 * rt.TicksPerD
	keysPerClient   = 8
	globalScanEvery = 25 * rt.TicksPerD
)

// shardLimits rejects what a sharded run cannot do, each with its reason.
func (cfg *Config) shardLimits() error {
	switch {
	case cfg.info.Sequential:
		return fmt.Errorf("chaos: engine %q is sequentially consistent; shards need linearizable scans for cut validation", cfg.Engine)
	case cfg.ShardCrash >= cfg.Shards:
		return fmt.Errorf("chaos: -shard-crash %d out of range (shards=%d)", cfg.ShardCrash, cfg.Shards)
	case cfg.ShardPartition >= cfg.Shards:
		return fmt.Errorf("chaos: -shard-partition %d out of range (shards=%d)", cfg.ShardPartition, cfg.Shards)
	case cfg.ShardCrash >= 0 && !cfg.info.Durable():
		return fmt.Errorf("chaos: -shard-crash restarts a shard from its WALs, which needs a WAL-capable engine (%s), not %q", durableNames(), cfg.Engine)
	case cfg.Mix.CorruptWindows > 0:
		return fmt.Errorf("chaos: -corrupts is not supported with -shards (the cluster stack is run without wire corruption)")
	case cfg.Churn || cfg.Monitor:
		return fmt.Errorf("chaos: -churn and -monitor are not supported with -shards (the cluster report has no single-object history)")
	case cfg.TraceDir != "":
		return fmt.Errorf("chaos: -trace-dir is not supported with -shards (the trace records one object's operations)")
	case cfg.Service:
		return fmt.Errorf("chaos: Service is not supported with -shards (every shard already runs behind its own service fronts)")
	}
	return nil
}

func (cfg *Config) shardMap() cluster.ShardMap {
	return cluster.ContiguousMap(cfg.Shards, cfg.N, cfg.F, cluster.DefaultVNodes)
}

// shardSchedule is a sharded run's one fault stream: each shard's own
// generate schedule (seed offset by the shard index) remapped onto its
// members, plus the whole-shard crash/restart and partition episodes,
// merged by partition union. Its N counts every node of the topology; its
// Mix is each shard's.
func (cfg *Config) shardSchedule() Schedule {
	m := cfg.shardMap()
	var mix Mix
	sources := make([][]Event, 0, cfg.Shards+2)
	for s, members := range m.Members {
		sched := generate(cfg.Seed+int64(s)*9973, cfg.N, cfg.F, cfg.Duration, cfg.Mix)
		mix = sched.Mix
		sources = append(sources, remapEvents(sched.Events, members))
	}
	if cfg.ShardCrash >= 0 {
		var evs []Event
		crashAt := cfg.Duration * 40 / 100
		restartAt := cfg.Duration * 55 / 100
		for _, id := range m.Members[cfg.ShardCrash] {
			evs = append(evs,
				Event{At: crashAt, Kind: EvCrash, Node: id},
				Event{At: restartAt, Kind: EvRestart, Node: id})
		}
		sources = append(sources, evs)
	}
	if cfg.ShardPartition >= 0 {
		island := append([]int(nil), m.Members[cfg.ShardPartition]...)
		sources = append(sources, []Event{
			{At: cfg.Duration * 30 / 100, Kind: EvPartition, Groups: [][]int{island}},
			{At: cfg.Duration * 60 / 100, Kind: EvHeal},
		})
	}
	return Schedule{Seed: cfg.Seed, N: m.NumNodes(), F: cfg.F, Duration: cfg.Duration,
		Mix: mix, Events: mergeSchedules(sources)}
}

// remapEvents rewrites a shard-local schedule onto the shard's global
// member IDs. Mid-broadcast flags are dropped: the cluster stack never
// issues runtime broadcasts (shard runtimes loop sends), so an armed
// mid-crash would only fire its fallback; a plain crash at the same tick
// is the equivalent fault. Corruption windows are dropped too (shardLimits
// rejects them).
func remapEvents(evs []Event, members []int) []Event {
	out := make([]Event, 0, len(evs))
	for _, ev := range evs {
		ev.Mid = false
		switch ev.Kind {
		case EvCorruptOn, EvCorruptOff:
			continue
		case EvCrash, EvRestart:
			ev.Node = members[ev.Node]
		case EvDropOn, EvDropOff, EvSpikeOn, EvSpikeOff:
			ev.Src, ev.Dst = members[ev.Src], members[ev.Dst]
		case EvPartition:
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
func mergeSchedules(sources [][]Event) []Event {
	type tagged struct {
		ev  Event
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
	out := make([]Event, 0, len(all))
	for _, t := range all {
		switch t.ev.Kind {
		case EvPartition:
			active[t.src] = t.ev.Groups
			out = append(out, Event{At: t.ev.At, Kind: EvPartition, Groups: union()})
		case EvHeal:
			delete(active, t.src)
			if u := union(); len(u) > 0 {
				out = append(out, Event{At: t.ev.At, Kind: EvPartition, Groups: u})
			} else {
				out = append(out, Event{At: t.ev.At, Kind: EvHeal})
			}
		default:
			out = append(out, t.ev)
		}
	}
	return out
}

// Cuts tallies a sharded run's routed workload and its coordinators'
// cuts. A cut that could not be assembled (Errs) is availability, not
// consistency: expected while shards are down or unreachable.
type Cuts struct {
	Updates    int64 `json:"updates"`
	UpdateErrs int64 `json:"updateErrs"`
	Scans      int64 `json:"scans"`
	ScanErrs   int64 `json:"scanErrs"`
	// GlobalScans counts the coordinators' cuts: OK validated, Repaired
	// needed at least one closure-repair round first.
	GlobalScans int64   `json:"globalScans"`
	OK          int64   `json:"cutsOK"`
	Repaired    int64   `json:"cutRepairs"`
	Errs        int64   `json:"cutErrs"`
	SkewMaxD    float64 `json:"skewMaxD"`
	SkewMeanD   float64 `json:"skewMeanD"`
}

func (c *Cuts) String() string {
	return fmt.Sprintf("updates=%d(+%d err) scans=%d(+%d err) cuts=%d ok=%d repaired=%d err=%d skew(max=%.1fD mean=%.1fD)",
		c.Updates, c.UpdateErrs, c.Scans, c.ScanErrs, c.GlobalScans, c.OK, c.Repaired, c.Errs, c.SkewMaxD, c.SkewMeanD)
}

// shardStack is the sharded store on the world's Shards × N nodes, each
// routing by one contiguous shard map and ordering contacts by health.
func shardStack(cfg *Config, w world, health *cluster.Health) stack {
	m := cfg.shardMap()
	// mu guards the node table and the tally: on the real transports
	// clients, coordinators and the restart driver are concurrent
	// goroutines (on the simulator it is never contended).
	var mu sync.Mutex
	nodes := make([]*cluster.Node, m.NumNodes())
	node := func(id int) *cluster.Node { mu.Lock(); defer mu.Unlock(); return nodes[id] }
	var cuts Cuts // SkewMeanD holds the sum until finish
	var violations []string
	tally := func(ok, failed *int64, err error) {
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			ok = failed
		}
		*ok++
	}

	// client is incarnation inc's client of node id: a writer issuing
	// marked updates over a private key pool, each mark chaining to the
	// writer's previous acked write, interleaved with keyed scans. It stops
	// only when its node dies under it; a routed operation that failed
	// otherwise is counted and the workload goes on.
	client := func(id, inc int) func() {
		writer := fmt.Sprintf("w%dc0", id)
		if inc > 0 {
			writer = fmt.Sprintf("w%dc0.%d", id, inc)
		}
		rng := rand.New(rand.NewSource(cfg.clientSeed(id, 0, inc)))
		key := func() string { return fmt.Sprintf("%s/k%d", writer, rng.Intn(keysPerClient)) }
		var seq, lastSeq int64
		lastKey := ""
		return func() {
			runClient(w, cfg.Duration, cfg.clientMix(id), rng, func(scan bool) bool {
				nd := node(id)
				if scan {
					_, err := nd.Scan(key())
					tally(&cuts.Scans, &cuts.ScanErrs, err)
					return !errors.Is(err, rt.ErrCrashed)
				}
				seq++
				mk := cluster.Mark{Writer: writer, Seq: seq, PrevKey: lastKey, PrevSeq: lastSeq}
				k := key()
				err := nd.Update(k, mk.Encode())
				tally(&cuts.Updates, &cuts.UpdateErrs, err)
				if err != nil {
					// The write may still have committed (lost ack); reusing
					// the sequence number for a different key is safe — both
					// marks chain to the same already-committed predecessor.
					seq--
					return !errors.Is(err, rt.ErrCrashed)
				}
				lastKey, lastSeq = k, seq
				return true
			})
		}
	}
	// record folds one coordinator GlobalScan outcome into the tally.
	record := func(cut *cluster.Cut, err error) {
		mu.Lock()
		defer mu.Unlock()
		cuts.GlobalScans++
		if err != nil {
			cuts.Errs++
			return
		}
		if cut.Rounds > 1 {
			cuts.Repaired++
		}
		if vio := cut.Validate(); len(vio) > 0 {
			violations = append(violations, vio...)
			return
		}
		cuts.OK++
		skew := float64(cut.Skew()) / float64(rt.TicksPerD)
		cuts.SkewMaxD = max(cuts.SkewMaxD, skew)
		cuts.SkewMeanD += skew
	}
	coordinator := func(id int) {
		rng := rand.New(rand.NewSource(cfg.Seed*31 + int64(id)))
		for w.Now() < cfg.Duration {
			jitter := rt.Ticks(rng.Int63n(int64(globalScanEvery/4) + 1))
			if w.Sleep(globalScanEvery+jitter) != nil || w.Now() >= cfg.Duration {
				return
			}
			cut, err := node(id).GlobalScanClosed()
			if errors.Is(err, rt.ErrCrashed) {
				return
			}
			record(cut, err)
		}
	}

	return stack{
		// On recovery the shard engine replays the durable WAL prefix under
		// the record fold, which rebuilds this member's segment — pruned
		// writes included — from the WAL alone; routing state dies with the
		// incarnation.
		build: func(id int, f *wal.MemFile, recover bool) (rt.Handler, engine.Rejoiner, error) {
			var rj engine.Rejoiner
			nd, err := cluster.NewNode(w.Runtime(id), cluster.Config{Map: m, Health: health,
				NewEngine: func(_ int, r rt.Runtime) (rt.Handler, svc.Object) {
					e := cfg.newEngine(r, f, svc.RecordFold, recover)
					rj, _ = e.(engine.Rejoiner)
					return e, e
				}})
			if err != nil {
				return nil, nil, err
			}
			mu.Lock()
			nodes[id] = nd
			mu.Unlock()
			return nd.Handler(), rj, nil
		},
		// A node runs one thread per shard service it hosts, its client,
		// and, on the last member of a shard, that shard's coordinator.
		start: func(id, inc int) {
			for si, sv := range node(id).Services() {
				w.GoService(fmt.Sprintf("svc-%d.%d", id, si), id, func() { _ = sv.Serve() })
			}
			if w.Now() >= cfg.Duration {
				return
			}
			w.GoClient(fmt.Sprintf("client-%d.%d", id, inc), id, client(id, inc))
			shard := id / cfg.N
			if members := m.Members[shard]; id == members[len(members)-1] {
				w.GoClient(fmt.Sprintf("coord-%d", shard), id, func() { coordinator(id) })
			}
		},
		// Draining closes every node, so drained workers exit.
		drain: func() {
			for id := range nodes {
				node(id).Close()
			}
		},
		finish: func(res *Result) {
			mu.Lock()
			defer mu.Unlock()
			c := cuts
			if c.OK > 0 {
				c.SkewMeanD /= float64(c.OK)
			}
			res.Cuts, res.Violations = &c, violations
		},
	}
}
