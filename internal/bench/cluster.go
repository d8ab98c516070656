package bench

import (
	"fmt"

	"mpsnap/internal/cluster"
	"mpsnap/internal/engine"
	"mpsnap/internal/rt"
	"mpsnap/internal/sim"
	"mpsnap/internal/svc"
)

// The cluster experiment measures the price of cross-shard consistency:
// a GlobalScan must coordinate a cut across every shard at one timestamp
// frontier and validate it, where a single-cluster scan only pays one
// EQ-ASO scan. Two questions, swept over shard counts on a fault-free
// simulator with per-shard data held constant:
//
//   - overhead at shards=1: the routed, validated GlobalScan against a
//     plain svc.Service scan on an identical cluster (the acceptance
//     gate — coordination machinery may cost at most a small factor);
//   - growth with shards: scan latency and cut skew (how far individual
//     shard scans land past the common frontier) as shards multiply.

// ClusterPoint is the GlobalScan cost at one shard count.
type ClusterPoint struct {
	Shards     int     `json:"shards"`
	Nodes      int     `json:"nodes"`
	Keys       int     `json:"keys"`  // mark-chain keys written before scanning
	Scans      int     `json:"scans"` // validated GlobalScans measured
	ScanMeanD  float64 `json:"scanMeanD"`
	ScanWorstD float64 `json:"scanWorstD"`
	SkewMeanD  float64 `json:"skewMeanD"`
	SkewMaxD   float64 `json:"skewMaxD"`
	Repairs    int     `json:"repairs"` // closure-repair rounds beyond the first
}

// clusterLimit caps the shards=1 GlobalScan cost relative to the plain svc
// scan: the full GlobalScan machinery over one shard may cost at most
// clusterLimit× the plain single-cluster svc scan path (growth with shard
// count is reported, not gated — it measures coordination, not overhead).
const clusterLimit = 1.2

// clusterScan sweeps shard counts, measuring validated GlobalScan latency
// and cut skew with keysPerShard mark-chain keys per shard, plus the
// single-cluster svc baseline for the shards=1 ratio: the multiplicative
// cost of routing + cut assembly + validation when there is nothing to
// coordinate across.
func clusterScan(p Params) (*Report, error) {
	n, f, shardCounts, keysPerShard, scans := 3, 1, []int{1, 2, 4, 8}, 8, 5
	if p.Quick {
		shardCounts, keysPerShard, scans = []int{1, 2, 4}, 6, 3
	}
	base, err := baselineSvcScan(n, f, keysPerShard, scans, p.Seed)
	if err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}
	var points []ClusterPoint
	var oneShard float64
	t := Table{Title: fmt.Sprintf("Cross-shard GlobalScan vs shard count: n=%d f=%d per shard, %d keys/shard, %d scans, fault-free\n",
		n, f, keysPerShard, scans)}
	t.Row("shards\tnodes\tkeys\tscan mean\tscan worst\tskew mean\tskew max\trepairs")
	for _, s := range shardCounts {
		pt, err := clusterScanPoint(s, n, f, keysPerShard, scans, p.Seed+int64(s)*131)
		if err != nil {
			return nil, fmt.Errorf("shards=%d: %w", s, err)
		}
		points = append(points, pt)
		if s == 1 {
			oneShard = ratio(pt.ScanMeanD, base)
		}
		t.Row("%d\t%d\t%d\t%.1fD\t%.1fD\t%.1fD\t%.1fD\t%d",
			pt.Shards, pt.Nodes, pt.Keys, pt.ScanMeanD, pt.ScanWorstD, pt.SkewMeanD, pt.SkewMaxD, pt.Repairs)
	}
	t.Notes = fmt.Sprintf("baseline: plain svc scan on one %d-node cluster = %.1fD; shards=1 ratio %.2f× (must stay ≤%.1f×)\n",
		n, base, oneShard, clusterLimit) +
		"shape: scan latency stays ~flat in shard count (shards are scanned in\n" +
		"parallel; the cut waits for the slowest shard, not the sum), while skew\n" +
		"grows mildly — more shards give the frontier more chances to land mid-op.\n"
	return &Report{
		Params: map[string]any{"n": n, "f": f, "shardCounts": shardCounts, "keysPerShard": keysPerShard, "scans": scans},
		Points: points,
		// baselineScanD is the mean svc.Service scan latency on one plain
		// n-node cluster (same engine, same service front, no cluster layer).
		Derived: map[string]float64{"baselineScanD": base, "oneShardRatio": oneShard},
		Table:   t,
		check: atMost(fmt.Sprintf("cluster: shards=1 GlobalScan (%.2fD) over the svc scan baseline (%.2fD)", oneShard*base, base),
			oneShard, clusterLimit),
	}, nil
}

// baselineSvcScan times svc.Service.Scan on one plain n-node EQ-ASO
// cluster after keys sequential updates — the exact scan path a
// single-shard deployment without the cluster layer would use.
func baselineSvcScan(n, f, keys, scans int, seed int64) (float64, error) {
	c := build(sim.Config{N: n, F: f, Seed: seed}, EQASO)
	services := serveAll(c, svc.Options{})
	var total rt.Ticks
	err := runProbe(c.W, func() {
		for _, s := range services {
			s.Close()
		}
	}, func(p *sim.Proc) error {
		for i := 0; i < keys; i++ {
			if err := services[0].Update([]byte(fmt.Sprintf("bench/k%d", i))); err != nil {
				return fmt.Errorf("update %d: %w", i, err)
			}
		}
		for i := 0; i < scans; i++ {
			start := p.Now()
			if _, err := services[0].Scan(); err != nil {
				return fmt.Errorf("scan %d: %w", i, err)
			}
			total += p.Now() - start
		}
		return nil
	})
	return total.DUnits() / float64(scans), err
}

// runProbe runs probe on node 0 and the world to completion, calling
// closeAll once the probe returns. The close runs from a node-unbound
// driver (not the probe's defer) so that every node's idle service waiter
// re-evaluates and drains; a node-0 proc only wakes node 0's.
func runProbe(w *sim.World, closeAll func(), probe func(*sim.Proc) error) error {
	var failed error
	done := false
	w.Go("closer", func(p *sim.Proc) {
		_ = p.WaitUntilGlobal("probe done", func() bool { return done })
		closeAll()
	})
	w.GoNode("probe", 0, func(p *sim.Proc) {
		defer func() { done = true }()
		failed = probe(p)
	})
	if err := w.Run(); err != nil {
		return err
	}
	return failed
}

// clusterScanPoint brings up a shards×n cluster topology on the
// simulator, writes one cross-shard mark chain of shards*keysPerShard
// keys, then times `scans` closure-repaired, validated GlobalScans from
// a node of shard 0.
func clusterScanPoint(shards, n, f, keysPerShard, scans int, seed int64) (ClusterPoint, error) {
	m := cluster.ContiguousMap(shards, n, f, 0)
	total := m.NumNodes()
	health := cluster.NewHealth(total)
	w := sim.New(sim.Config{N: total, F: f, Seed: seed, Observer: health})
	nodes := make([]*cluster.Node, total)
	for id := 0; id < total; id++ {
		nd, err := cluster.NewNode(w.Runtime(id), cluster.Config{
			Map:    m,
			Health: health,
			NewEngine: func(shard int, r rt.Runtime) (rt.Handler, svc.Object) {
				e := engine.MustLookup("eqaso").New(r)
				return e, e
			},
		})
		if err != nil {
			return ClusterPoint{}, err
		}
		nodes[id] = nd
		w.SetHandler(id, nd.Handler())
	}
	for id := 0; id < total; id++ {
		id := id
		for si, s := range nodes[id].Services() {
			s := s
			w.GoNode(fmt.Sprintf("svc-%d.%d", id, si), id, func(p *sim.Proc) { _ = s.Serve() })
		}
	}

	keys := shards * keysPerShard
	pt := ClusterPoint{Shards: shards, Nodes: total, Keys: keys, Scans: scans}
	var scanTotal, scanWorst, skewTotal, skewMax rt.Ticks
	err := runProbe(w, func() {
		for _, nd := range nodes {
			nd.Close()
		}
	}, func(p *sim.Proc) error {
		nd := nodes[0]
		// One mark chain across all shards: the ring spreads the keys, so
		// successive marks usually cross shard boundaries and every cut's
		// closure check has real cross-shard predecessors to verify.
		var lastKey string
		var lastSeq int64
		for i := 0; i < keys; i++ {
			key := fmt.Sprintf("bench/k%d", i)
			mk := cluster.Mark{Writer: "bench", Seq: int64(i + 1), PrevKey: lastKey, PrevSeq: lastSeq}
			if err := nd.Update(key, mk.Encode()); err != nil {
				return fmt.Errorf("update %d: %w", i, err)
			}
			lastKey, lastSeq = key, int64(i+1)
		}
		for i := 0; i < scans; i++ {
			start := p.Now()
			cut, err := nd.GlobalScanClosed()
			if err != nil {
				return fmt.Errorf("global scan %d: %w", i, err)
			}
			lat := p.Now() - start
			scanTotal += lat
			if lat > scanWorst {
				scanWorst = lat
			}
			skew := cut.Skew()
			skewTotal += skew
			if skew > skewMax {
				skewMax = skew
			}
			pt.Repairs += cut.Rounds - 1
		}
		return nil
	})
	if err != nil {
		return pt, err
	}
	pt.ScanMeanD = scanTotal.DUnits() / float64(scans)
	pt.ScanWorstD = scanWorst.DUnits()
	pt.SkewMeanD = skewTotal.DUnits() / float64(scans)
	pt.SkewMaxD = skewMax.DUnits()
	return pt, nil
}
