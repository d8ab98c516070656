package eqaso_test

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mpsnap/internal/core"
	"mpsnap/internal/engine"
	"mpsnap/internal/eqaso"
	"mpsnap/internal/harness"
	"mpsnap/internal/history"
	"mpsnap/internal/rt"
	"mpsnap/internal/sim"
	"mpsnap/internal/transport"
)

// window is the value log's recent window (core's windowCap): a node
// without a WAL prunes once the vouched floor has passed half of it.
const window = 256

// registryNode builds an eqaso node as every deployment does, through the
// engine registry: it prunes its value log, WAL or not.
func registryNode(r rt.Runtime) *eqaso.Node {
	return engine.MustLookup("eqaso").New(r).(*eqaso.Node)
}

// pruneRun is a crash-stop run of registry-built nodes: one client per
// node alternates updates and scans, ops of each; the client of node
// crashed (if ≥ 0) crashes its node after crashAfter ops instead, and the
// clients of the nodes in quiet just stop operating then. With finished
// set, the first client to complete its ops sets it and the others stop at
// their next op, so no node that was active becomes quiet.
type pruneRun struct {
	n, f, ops           int
	crashed, crashAfter int
	quiet               []int
	finished            *atomic.Bool
}

// client is node i's operation loop, recorded into rec.
func (pr pruneRun) client(rec *history.Recorder, i int, obj harness.Object, now func() rt.Ticks, crash func()) {
	for k := 1; k <= pr.ops; k++ {
		if pr.finished != nil && pr.finished.Load() {
			return
		}
		if k > pr.crashAfter && (i == pr.crashed || slices.Contains(pr.quiet, i)) {
			if i == pr.crashed {
				crash()
			}
			return
		}
		if k%2 == 1 {
			v := fmt.Sprintf("v%d-%d", i, k)
			op := rec.BeginUpdate(i, v, now())
			if obj.Update([]byte(v)) != nil {
				return
			}
			op.End(now())
			continue
		}
		op := rec.BeginScan(i, now())
		snap, err := obj.Scan()
		if err != nil {
			return
		}
		op.EndScan(harness.SnapStrings(snap), now())
	}
	if pr.finished != nil {
		pr.finished.Store(true)
	}
}

// run drives the workload on backend sim, chan or tcp and returns every
// node's memory at the end and the checked history.
func (pr pruneRun) run(t *testing.T, backend string) []eqaso.MemoryStats {
	t.Helper()
	rec := history.NewRecorder(pr.n)
	nodes := make([]*eqaso.Node, pr.n)
	switch backend {
	case "sim":
		w := sim.New(sim.Config{N: pr.n, F: pr.f, Seed: 11})
		for i := range nodes {
			nodes[i] = registryNode(w.Runtime(i))
			w.SetHandler(i, nodes[i])
		}
		for i := range nodes {
			w.GoNode(fmt.Sprintf("client-%d", i), i, func(*sim.Proc) {
				pr.client(rec, i, nodes[i], w.Now, func() { w.Crash(i) })
			})
		}
		if err := w.Run(); err != nil {
			t.Fatal(err)
		}
	case "chan", "tcp":
		rts := make([]rt.Runtime, pr.n)
		crash := make([]func(), pr.n)
		if backend == "chan" {
			net := transport.NewChanNet(transport.ChanConfig{N: pr.n, F: pr.f, D: 20 * time.Microsecond, Seed: 11})
			defer net.Close()
			for i := range nodes {
				rts[i], crash[i] = net.Runtime(i), func() { net.Crash(i) }
				nodes[i] = registryNode(rts[i])
				net.SetHandler(i, nodes[i])
			}
		} else {
			mesh, err := transport.LoopbackMesh(pr.n, transport.TCPConfig{F: pr.f, D: time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			for i, tn := range mesh {
				defer tn.Close()
				rts[i], crash[i] = tn.Runtime(), tn.Crash
				nodes[i] = registryNode(rts[i])
				tn.SetHandler(nodes[i])
			}
		}
		var wg sync.WaitGroup
		for i := range nodes {
			wg.Add(1)
			go func() {
				defer wg.Done()
				pr.client(rec, i, nodes[i], rts[i].Now, crash[i])
			}()
		}
		wg.Wait()
	default:
		t.Fatalf("unknown backend %q", backend)
	}
	if rep := rec.History().CheckLinearizable(); !rep.OK {
		t.Fatalf("history not linearizable: %d violations, first: %s", len(rep.Violations), rep.Violations[0])
	}
	mem := make([]eqaso.MemoryStats, pr.n)
	for i, nd := range nodes {
		mem[i] = nd.Memory()
	}
	return mem
}

var pruneBackends = []string{"sim", "chan", "tcp"}

// TestPruneKeepsActiveWindowWithoutWAL: a registry-built node without a WAL
// prunes in the crash-stop model, the vouch riding its goodLA. After 1,200
// ops per node it holds a few windows of values, not the 1,800 written. (A
// node stops vouching when its client stops, so the first to finish holds
// the floor for the last few hundred values.)
func TestPruneKeepsActiveWindowWithoutWAL(t *testing.T) {
	t.Parallel()
	for _, backend := range pruneBackends {
		t.Run(backend, func(t *testing.T) {
			t.Parallel()
			pr := pruneRun{n: 3, f: 1, ops: 1200, crashed: -1}
			for i, m := range pr.run(t, backend) {
				if m.Values != pr.n*pr.ops/2 {
					t.Errorf("node %d learned %d values, want %d", i, m.Values, pr.n*pr.ops/2)
				}
				if m.Pruned == 0 || m.Retained > 4*window {
					t.Errorf("node %d holds %d values (%d pruned), want at most %d", i, m.Retained, m.Pruned, 4*window)
				}
			}
		})
	}
}

// TestCrashedPeerStopsPruneWithoutWAL pins the limit of crash-stop pruning:
// the floor needs every node's vouch, so once a node has crashed its last
// vouch holds the floor and the survivors' retention grows with the run
// again. The history stays linearizable.
func TestCrashedPeerStopsPruneWithoutWAL(t *testing.T) {
	t.Parallel()
	for _, backend := range pruneBackends {
		t.Run(backend, func(t *testing.T) {
			t.Parallel()
			pr := pruneRun{n: 3, f: 1, ops: 1200, crashed: 2, crashAfter: 200}
			mem := pr.run(t, backend)
			for i, m := range mem[:2] {
				if m.Pruned == 0 || m.Retained <= 2*window || m.Retained+m.Pruned != m.Values {
					t.Errorf("node %d holds %d of %d values (%d pruned), want some pruned and more than %d held", i, m.Retained, m.Values, m.Pruned, 2*window)
				}
			}
		})
	}
}

// maxGoodViewTags bounds the good-view cache of a node that operates, or
// is the only quiet one: a few views past the smallest tag any lookup can
// still ask for.
const maxGoodViewTags = 16

// TestPruneTrimsQuietNodeGoodViews: a node whose client stops halfway
// keeps receiving its peers' goodLA views, and only its own lattice
// operations used to trim that cache, so it grew by one entry per peer
// goodLA tag. It now follows the smallest tag a lookup can still ask for.
// The bound holds while at most one node is quiet, so the run ends when
// the first active node finishes: every node — the quiet one too — ends
// with a cache of a few views. TestPruneQuietPairKeepsPeerGoodViews is
// the limit past that.
func TestPruneTrimsQuietNodeGoodViews(t *testing.T) {
	t.Parallel()
	for _, backend := range pruneBackends {
		t.Run(backend, func(t *testing.T) {
			t.Parallel()
			pr := pruneRun{n: 3, f: 1, ops: 1200, crashed: -1, crashAfter: 600, quiet: []int{2}, finished: new(atomic.Bool)}
			for i, m := range pr.run(t, backend) {
				t.Logf("node %d: %d borrowed tags, %d values held, %d pruned", i, m.BorrowTags, m.Retained, m.Pruned)
				if m.BorrowTags > maxGoodViewTags {
					t.Errorf("node %d caches good views at %d tags, want at most %d", i, m.BorrowTags, maxGoodViewTags)
				}
			}
		})
	}
}

// TestPruneQuietPairKeepsPeerGoodViews pins the limit of the quiet-node
// trim (DESIGN §9): with two nodes quiet, each one's bound includes the
// other's last goodLA, so both keep a view per goodLA tag the active node
// sends meanwhile, while the active node's own lattice operations still
// trim its cache. Bounding the pair needs a node to say when its client
// goes idle; when that lands, this test's quiet-node half turns into the
// bound above.
func TestPruneQuietPairKeepsPeerGoodViews(t *testing.T) {
	t.Parallel()
	for _, backend := range pruneBackends {
		t.Run(backend, func(t *testing.T) {
			t.Parallel()
			pr := pruneRun{n: 3, f: 1, ops: 1200, crashed: -1, crashAfter: 600, quiet: []int{1, 2}}
			for i, m := range pr.run(t, backend) {
				t.Logf("node %d: %d borrowed tags, %d values held, %d pruned", i, m.BorrowTags, m.Retained, m.Pruned)
				switch quiet := slices.Contains(pr.quiet, i); {
				case !quiet && m.BorrowTags > maxGoodViewTags:
					t.Errorf("active node %d caches good views at %d tags, want at most %d", i, m.BorrowTags, maxGoodViewTags)
				case quiet && m.BorrowTags <= maxGoodViewTags:
					t.Errorf("quiet node %d caches good views at only %d tags: the two-quiet limit is gone, "+
						"so bound the pair as TestPruneTrimsQuietNodeGoodViews does and update DESIGN §9", i, m.BorrowTags)
				}
			}
		})
	}
}

// TestGoodViewsComparableAcrossPrunes is Lemma 2 on pruning nodes: the
// good lattice views of registry-built nodes, cut at different prune
// points, form one chain under the subset order — so every pair is
// comparable — counting the values each view stands for.
func TestGoodViewsComparableAcrossPrunes(t *testing.T) {
	t.Parallel()
	const n, ops = 3, 1200
	var views []core.View
	w := sim.New(sim.Config{N: n, F: 1, Seed: 29})
	nodes := make([]*eqaso.Node, n)
	for i := range nodes {
		nodes[i] = registryNode(w.Runtime(i))
		nodes[i].OnGoodLattice = func(_ core.Tag, v core.View) { views = append(views, v) }
		w.SetHandler(i, nodes[i])
	}
	rec := history.NewRecorder(n)
	pr := pruneRun{n: n, f: 1, ops: ops, crashed: -1}
	for i := range nodes {
		w.GoNode(fmt.Sprintf("client-%d", i), i, func(*sim.Proc) {
			pr.client(rec, i, nodes[i], w.Now, nil)
		})
	}
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	pruned := map[int]bool{}
	for _, v := range views {
		pruned[v.Pruned()] = true
	}
	if len(pruned) < 3 {
		t.Fatalf("good views span %d prune points, want at least 3", len(pruned))
	}
	sort.SliceStable(views, func(i, j int) bool { return views[i].LogicalLen() < views[j].LogicalLen() })
	for i := 1; i < len(views); i++ {
		if !views[i-1].SubsetOf(views[i]) {
			t.Fatalf("good views incomparable: %d values (%d pruned) ⊄ %d values (%d pruned)",
				views[i-1].LogicalLen(), views[i-1].Pruned(), views[i].LogicalLen(), views[i].Pruned())
		}
	}
}
