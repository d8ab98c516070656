package cluster

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"mpsnap/internal/engine"
	_ "mpsnap/internal/engine/all" // register every snapshot engine
	"mpsnap/internal/rt"
	"mpsnap/internal/sim"
	"mpsnap/internal/svc"
)

// buildWorld brings up a Shards×N topology on the simulator: every node
// runs the full cluster stack with eqaso engines, serving threads
// spawned. Returns the world and the nodes.
func buildWorld(t *testing.T, shards, n, f int, seed int64) (*sim.World, []*Node) {
	t.Helper()
	return buildWorldWith(t, shards, n, f, seed, func(r rt.Runtime) (rt.Handler, svc.Object) {
		e := engine.MustLookup("eqaso").New(r)
		return e, e
	})
}

// buildWorldWith is buildWorld with the shard engines built by newEngine.
func buildWorldWith(t *testing.T, shards, n, f int, seed int64, newEngine func(rt.Runtime) (rt.Handler, svc.Object)) (*sim.World, []*Node) {
	t.Helper()
	m := ContiguousMap(shards, n, f, 0)
	total := m.NumNodes()
	health := NewHealth(total)
	w := sim.New(sim.Config{N: total, F: f, Seed: seed, Observer: health})
	nodes := make([]*Node, total)
	for id := 0; id < total; id++ {
		nd, err := NewNode(w.Runtime(id), Config{
			Map:       m,
			Health:    health,
			NewEngine: func(shard int, r rt.Runtime) (rt.Handler, svc.Object) { return newEngine(r) },
		})
		if err != nil {
			t.Fatalf("NewNode(%d): %v", id, err)
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
	return w, nodes
}

// closeAll shuts down every node so serving procs drain and exit.
func closeAll(w *sim.World, nodes []*Node, after rt.Ticks) {
	w.After(after, func() {
		for _, nd := range nodes {
			nd.Close()
		}
	})
}

// TestUpdateScanAcrossShards routes writes from one client node to every
// shard and reads them back through keyed scans.
func TestUpdateScanAcrossShards(t *testing.T) {
	w, nodes := buildWorld(t, 4, 3, 1, 42)
	keys := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta"}
	w.GoNode("writer", 0, func(p *sim.Proc) {
		nd := nodes[0]
		for i, k := range keys {
			if err := nd.Update(k, []byte(fmt.Sprintf("v%d", i))); err != nil {
				t.Errorf("update %q: %v", k, err)
			}
		}
		for i, k := range keys {
			vals, err := nd.Scan(k)
			if err != nil {
				t.Errorf("scan %q: %v", k, err)
				continue
			}
			want := []byte(fmt.Sprintf("v%d", i))
			found := false
			for _, v := range vals {
				if bytes.Equal(v, want) {
					found = true
				}
			}
			if !found {
				t.Errorf("scan %q: value %q not in %q", k, want, vals)
			}
		}
	})
	closeAll(w, nodes, 400*rt.TicksPerD)
	if err := w.Run(); err != nil {
		t.Fatalf("sim: %v", err)
	}
}

// TestGlobalScanClosed writes a cross-shard mark chain, then takes a
// closure-repaired GlobalScan and validates it.
func TestGlobalScanClosed(t *testing.T) {
	w, nodes := buildWorld(t, 3, 3, 1, 7)
	w.GoNode("writer", 1, func(p *sim.Proc) {
		rng := rand.New(rand.NewSource(99))
		var lastKey string
		var lastSeq int64
		for seq := int64(1); seq <= 20; seq++ {
			key := fmt.Sprintf("w1/k%d", rng.Intn(8))
			mk := Mark{Writer: "w1", Seq: seq, PrevKey: lastKey, PrevSeq: lastSeq}
			if err := nodes[1].Update(key, mk.Encode()); err != nil {
				t.Errorf("update %d: %v", seq, err)
				return
			}
			lastKey, lastSeq = key, seq
		}
		cut, err := nodes[1].GlobalScanClosed()
		if err != nil {
			t.Errorf("GlobalScanClosed: %v", err)
			return
		}
		if vio := cut.Validate(); len(vio) > 0 {
			t.Errorf("cut violations: %v", vio)
		}
		if cut.Skew() <= 0 {
			t.Errorf("cut skew = %d, want > 0", cut.Skew())
		}
		if got := dumpCut(cut); got != dumpCut(cut) {
			t.Errorf("dumpCut not deterministic")
		}
	})
	closeAll(w, nodes, 400*rt.TicksPerD)
	if err := w.Run(); err != nil {
		t.Fatalf("sim: %v", err)
	}
}

// TestValidatorRejectsInjectedInconsistency corrupts a valid cut in
// several ways and checks the validator flags each one.
func TestValidatorRejectsInjectedInconsistency(t *testing.T) {
	m := ContiguousMap(2, 3, 1, 0)
	ring := m.Ring()
	// Find two keys on different shards.
	keyOn := func(shard int) string {
		for i := 0; ; i++ {
			k := fmt.Sprintf("w0/k%d", i)
			if ring.ShardFor(k) == shard {
				return k
			}
		}
	}
	k0, k1 := keyOn(0), keyOn(1)
	seg := func(marks map[string]Mark) []byte {
		var recs []svc.Record
		for k, mk := range marks {
			recs = append(recs, svc.Record{K: k, V: mk.Encode()})
		}
		return svc.EncodeRecords(recs)
	}
	mk1 := Mark{Writer: "w0", Seq: 1}                          // first write, on k0 / shard 0
	mk2 := Mark{Writer: "w0", Seq: 2, PrevKey: k0, PrevSeq: 1} // second write, on k1 / shard 1
	valid := func() *Cut {
		return &Cut{
			Frontier: 100, Map: m, Rounds: 1,
			Shards: []ShardCut{
				{Shard: 0, ScanStart: 110, ScanEnd: 120, Segments: [][]byte{seg(map[string]Mark{k0: mk1}), nil, nil}, Rounds: 1},
				{Shard: 1, ScanStart: 112, ScanEnd: 125, Segments: [][]byte{seg(map[string]Mark{k1: mk2}), nil, nil}, Rounds: 1},
			},
		}
	}
	if vio := valid().Validate(); len(vio) != 0 {
		t.Fatalf("valid cut flagged: %v", vio)
	}

	// Missing predecessor: drop k0 from shard 0's cut.
	c := valid()
	c.Shards[0].Segments = [][]byte{nil, nil, nil}
	if vio := c.Validate(); len(vio) == 0 {
		t.Errorf("missing predecessor not flagged")
	}
	if miss := c.missingClosure(); len(miss) != 1 || miss[0] != 0 {
		t.Errorf("missingClosure = %v, want [0]", miss)
	}

	// Frontier violation: shard scan linearized before the frontier.
	c = valid()
	c.Shards[1].ScanStart = 90
	if vio := c.Validate(); len(vio) == 0 {
		t.Errorf("pre-frontier scan not flagged")
	}

	// Cross-writer collision on one key.
	c = valid()
	alien := Mark{Writer: "intruder", Seq: 9}
	c.Shards[0].Segments[1] = seg(map[string]Mark{k0: alien})
	if vio := c.Validate(); len(vio) == 0 {
		t.Errorf("cross-writer collision not flagged")
	}

	// Placement violation: k1 planted on shard 0.
	c = valid()
	c.Shards[0].Segments[2] = seg(map[string]Mark{k1: {Writer: "w1", Seq: 1}})
	if vio := c.Validate(); len(vio) == 0 {
		t.Errorf("misplaced key not flagged")
	}
}

// dumpCut renders the cut deterministically (shards in order, keys
// sorted by svc.MergeKeys), so two dumps of equal cuts are byte-equal.
func dumpCut(c *Cut) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "cut frontier=%d shards=%d rounds=%d\n", c.Frontier, len(c.Shards), c.Rounds)
	for s, sc := range c.Shards {
		fmt.Fprintf(&sb, "shard %d scan=[%d,%d] pending=%d rounds=%d\n",
			s, sc.ScanStart, sc.ScanEnd, sc.Pending, sc.Rounds)
		best := bestMarks(sc.Segments)
		for _, k := range svc.MergeKeys(sc.Segments) {
			if mk, ok := best[k]; ok {
				fmt.Fprintf(&sb, "  %s = %s@%d prev=%s@%d\n", k, mk.Writer, mk.Seq, mk.PrevKey, mk.PrevSeq)
			} else {
				fmt.Fprintf(&sb, "  %s = <%d members>\n", k, len(sc.Segments))
			}
		}
	}
	return sb.String()
}
