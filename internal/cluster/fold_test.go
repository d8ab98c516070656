package cluster

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"mpsnap/internal/core"
	"mpsnap/internal/engine"
	"mpsnap/internal/eqaso"
	"mpsnap/internal/rt"
	"mpsnap/internal/sim"
	"mpsnap/internal/svc"
	"mpsnap/internal/wal"
	"mpsnap/internal/wire"
)

// merger is the writer-side cumulative key map a shard member committed
// whole on every routed batch before a segment became the fold of its
// deltas. It stays as the differential oracle for svc.RecordFold, byte for
// byte, as core.ValueSet is for core.ValueLog.
type merger struct {
	cum   map[string][]byte
	order []string
}

func newMerger() *merger { return &merger{cum: make(map[string][]byte)} }

// merge folds a batch of routed key writes into the cumulative map and
// returns the full map as the committed segment payload.
func (m *merger) merge(payloads [][]byte) []byte {
	for _, p := range payloads {
		for _, rec := range svc.DecodeRecords(p) {
			if _, seen := m.cum[rec.K]; !seen {
				m.order = append(m.order, rec.K)
			}
			m.cum[rec.K] = rec.V
		}
	}
	recs := make([]svc.Record, 0, len(m.order))
	for _, k := range m.order {
		recs = append(recs, svc.Record{K: k, V: m.cum[k]})
	}
	return svc.EncodeRecords(recs)
}

// foldChain is one random run of routed batches over three writers: every
// value in commit (tag) order, and the oracle's segment after each.
type foldChain struct {
	vals []core.Value
	segs [][]byte // segs[i]: the writer of vals[i]'s segment after it
}

// randomDelta is one routed batch member: one to three records over a small
// key pool, so later writes overwrite earlier keys; now and then a payload
// with no records or one that does not decode, which both sides skip.
func randomDelta(rng *rand.Rand) []byte {
	switch rng.Intn(20) {
	case 0:
		return svc.EncodeRecords(nil)
	case 1:
		return []byte{0xff, 0x01}
	}
	recs := make([]svc.Record, 1+rng.Intn(3))
	for i := range recs {
		recs[i] = svc.Record{K: fmt.Sprintf("k%d", rng.Intn(12)), V: []byte(strings.Repeat("v", rng.Intn(40)))}
	}
	return svc.EncodeRecords(recs)
}

func newFoldChain(rng *rand.Rand, n, batches int) foldChain {
	var c foldChain
	oracles := make([]*merger, n)
	for w := range oracles {
		oracles[w] = newMerger()
	}
	tag := core.Tag(0)
	for b := 0; b < batches; b++ {
		w := rng.Intn(n)
		for k := 1 + rng.Intn(3); k > 0; k-- {
			tag++
			p := randomDelta(rng)
			c.vals = append(c.vals, core.Value{TS: core.Timestamp{Tag: tag, Writer: w}, Payload: p})
			c.segs = append(c.segs, oracles[w].merge([][]byte{p}))
		}
	}
	return c
}

// want is every writer's oracle segment over the chain's first k values.
func (c foldChain) want(n, k int) [][]byte {
	out := make([][]byte, n)
	for i := 0; i < k; i++ {
		out[c.vals[i].TS.Writer] = c.segs[i]
	}
	return out
}

func sameSegments(t *testing.T, what string, got, want [][]byte) {
	t.Helper()
	for w := range want {
		if !bytes.Equal(got[w], want[w]) {
			t.Fatalf("%s: writer %d's segment\n got %x\nwant %x", what, w, got[w], want[w])
		}
	}
}

// TestRecordFoldMatchesMergeOracle: random batch sequences folded by a
// value log under svc.RecordFold extract, byte for byte, what the
// cumulative merge commits — read directly, after freezing and pruning
// any prefix of the chain, through a Standalone view, through that view
// off the wire, and folded by a receiver that already holds a prefix of
// every writer's chain.
func TestRecordFoldMatchesMergeOracle(t *testing.T) {
	const n = 3
	pruned := 0
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := newFoldChain(rng, n, 20+rng.Intn(80))
		l := core.NewValueLog(n, 0)
		if err := l.SetFold(svc.RecordFold); err != nil {
			t.Fatal(err)
		}
		for i, v := range c.vals {
			l.Add(v.TS.Writer, v)
			what := fmt.Sprintf("seed %d after %d values", seed, i+1)
			switch rng.Intn(6) {
			case 0:
				l.AdvanceFrontier(core.Tag(rng.Intn(int(v.TS.Tag) + 1)))
			case 1:
				// Prune a frozen prefix, every peer vouching it.
				l.AdvanceFrontier(core.Tag(rng.Intn(int(v.TS.Tag) + 1)))
				ck := l.Frontier()
				for j := 1; j < n; j++ {
					l.NoteVouch(j, ck)
				}
				l.PruneTo(ck)
			}
			all := l.AllView()
			sameSegments(t, what, all.Extract(n), c.want(n, i+1))
			sa := all.Standalone()
			sameSegments(t, what+", standalone", sa.Extract(n), c.want(n, i+1))
			var b wire.Buffer
			wire.PutView(&b, sa)
			off := wire.GetView(wire.NewDecoder(b.Bytes())).WithFold(svc.RecordFold)
			sameSegments(t, what+", off the wire", off.Extract(n), c.want(n, i+1))
			if i%7 == 6 {
				// A receiver holding the first k values takes the flattened
				// view's values: each stand-in folds over the prefix it has.
				k := rng.Intn(i + 1)
				r := core.NewValueLog(n, 1)
				r.SetFold(svc.RecordFold)
				for _, v := range c.vals[:k] {
					r.Add(v.TS.Writer, v)
				}
				sa.Each(func(v core.Value) { r.Add(0, v) })
				sameSegments(t, what+", receiver", r.AllView().Extract(n), c.want(n, i+1))
			}
			if r := c.vals[rng.Intn(i+1)].TS.Tag; r >= l.PrunedTag() {
				k := 0
				for k < len(c.vals) && c.vals[k].TS.Tag <= r {
					k++
				}
				sameSegments(t, fmt.Sprintf("%s, view at %d", what, r), l.ViewLE(r).Extract(n), c.want(n, k))
			}
		}
		pruned += l.PrunedCount()
	}
	if pruned == 0 {
		t.Fatal("no seed pruned anything")
	}
}

// spy is a shard engine's handler that records the largest MsgValue it is
// delivered (encoded bytes). It forwards the fold capability, so the node
// still folds on the engine.
type spy struct {
	engine.Engine
	maxValue *int
}

func (s spy) SetFold(f core.Fold) error { return s.Engine.(engine.Folder).SetFold(f) }

func (s spy) HandleMessage(src int, m rt.Message) {
	if _, ok := m.(eqaso.MsgValue); ok {
		*s.maxValue = max(*s.maxValue, wire.EncodedSize(m))
	}
	s.Engine.HandleMessage(src, m)
}

// walBatch is the WAL fsync batch a sharded chaos run gives its members.
const walBatch = 8

// nodeBuilder builds one shard member's node stack on a durable eqaso
// engine (GC on), fresh or recovered from the member's WAL under the
// record fold, the way a sharded chaos run does, and keeps the recovered
// engine's rejoin handle.
type nodeBuilder struct {
	m       ShardMap
	files   []*wal.MemFile
	rejoins []engine.Rejoiner
}

func (b *nodeBuilder) nodeConfig(id int, recover bool) Config {
	return Config{Map: b.m, NewEngine: func(_ int, r rt.Runtime) (rt.Handler, svc.Object) {
		in, f := engine.MustLookup("eqaso"), b.files[id]
		if !recover {
			e := in.New(r)
			e.(engine.Durable).AttachWAL(wal.NewWriter(f, walBatch), true)
			return e, e
		}
		st := wal.Recover(f.Durable(), r.N(), r.ID(), svc.RecordFold)
		e := in.Recover(r, st, wal.NewWriter(f, walBatch), true)
		b.rejoins[id] = e.(engine.Rejoiner)
		return e, e
	}}
}

// foldTopology brings up one shard of three durable eqaso members (GC on)
// on the simulator, through nodeBuilder. wrap, if set, wraps each member's
// engine handler.
func foldTopology(t *testing.T, wrap func(id int, e engine.Engine) rt.Handler) (*sim.World, []*Node, *nodeBuilder) {
	t.Helper()
	b := &nodeBuilder{m: ContiguousMap(1, 3, 1, 0), files: make([]*wal.MemFile, 3), rejoins: make([]engine.Rejoiner, 3)}
	for id := range b.files {
		b.files[id] = wal.NewMemFile()
	}
	w := sim.New(sim.Config{N: 3, F: 1, Seed: 5})
	nodes := make([]*Node, 3)
	for id := range nodes {
		c := b.nodeConfig(id, false)
		if wrap != nil {
			build := c.NewEngine
			c.NewEngine = func(shard int, r rt.Runtime) (rt.Handler, svc.Object) {
				h, obj := build(shard, r)
				return wrap(id, h.(engine.Engine)), obj
			}
		}
		nd, err := NewNode(w.Runtime(id), c)
		if err != nil {
			t.Fatal(err)
		}
		nodes[id] = nd
		w.SetHandler(id, nd.Handler())
		serve(w, id, nd)
	}
	return w, nodes, b
}

func serve(w *sim.World, id int, nd *Node) {
	for _, s := range nd.Services() {
		w.GoNode(fmt.Sprintf("svc-%d", id), id, func(*sim.Proc) { _ = s.Serve() })
	}
}

// ownWALRecord is the framed size of node id's WAL record of its own latest
// value (shard-local writer id local).
func ownWALRecord(t *testing.T, f *wal.MemFile, local int) int {
	t.Helper()
	recs, _, err := wal.Replay(f.Durable())
	if err != nil {
		t.Fatal(err)
	}
	var last *wal.Record
	for i := range recs {
		if r := &recs[i]; r.Kind == wal.RecValue && r.Val.TS.Writer == local && (last == nil || r.Val.TS.Tag > last.Val.TS.Tag) {
			last = r
		}
	}
	if last == nil {
		t.Fatal("no own value in the WAL")
	}
	one := wal.NewWriter(wal.NewMemFile(), 0)
	one.AppendValue(last.Src, last.Val)
	return int(one.Counters().Bytes)
}

// TestRoutedWriteShipsTheDelta: a routed write commits the keys it changed,
// not the member's key map. After one member has written 1,000 distinct
// keys, the MsgValue of its next write and that write's WAL record are each
// under 256 bytes — no larger than after 100 keys.
func TestRoutedWriteShipsTheDelta(t *testing.T) {
	largest := make([]int, 3)
	w, nodes, b := foldTopology(t, func(id int, e engine.Engine) rt.Handler { return spy{e, &largest[id]} })
	val := bytes.Repeat([]byte("v"), 64)
	type probe struct{ keys, msg, rec int }
	var probes []probe
	w.GoNode("writer", 0, func(p *sim.Proc) {
		for i := 0; i < 1000; i++ {
			if i == 100 || i == 999 {
				// The next write is the one measured.
				clear(largest)
			}
			if err := nodes[0].Update(fmt.Sprintf("key-%04d", i), val); err != nil {
				t.Errorf("update %d: %v", i, err)
				return
			}
			if i == 100 || i == 999 {
				probes = append(probes, probe{keys: i + 1, msg: max(largest[1], largest[2]), rec: ownWALRecord(t, b.files[0], 0)})
			}
		}
	})
	closeAll(w, nodes, 50000*rt.TicksPerD)
	if err := w.Run(); err != nil {
		t.Fatalf("sim: %v", err)
	}
	if len(probes) != 2 {
		t.Fatalf("writer stopped early: %d probes", len(probes))
	}
	for _, p := range probes {
		t.Logf("after %d keys: MsgValue %d B, WAL record %d B", p.keys, p.msg, p.rec)
		if p.msg == 0 || p.msg >= 256 || p.rec >= 256 {
			t.Errorf("after %d keys: MsgValue %d B, WAL record %d B: want each in (0, 256)", p.keys, p.msg, p.rec)
		}
	}
	// Only the tag's varint may grow between the probes.
	if d := probes[1].msg - probes[0].msg; d > 2 {
		t.Errorf("MsgValue grew by %d B from %d to %d keys", d, probes[0].keys, probes[1].keys)
	}
	if d := probes[1].rec - probes[0].rec; d > 2 {
		t.Errorf("WAL record grew by %d B from %d to %d keys", d, probes[0].keys, probes[1].keys)
	}
}

// TestRecoveredSegmentSurvivesPrune restarts a shard member after GC pruned
// its own early writes out of every log, and checks that its segment —
// recovered from its WAL alone, before any rejoin reply — and then the
// shard snapshot, after more writes, equal byte for byte what the
// cumulative merge of all its writes commits.
func TestRecoveredSegmentSurvivesPrune(t *testing.T) { restartAfterPrune(t, 1) }

// TestRecoveredSegmentSurvivesTwoRestarts is the same with a second restart
// replaying a WAL that the first recovered incarnation appended to.
func TestRecoveredSegmentSurvivesTwoRestarts(t *testing.T) { restartAfterPrune(t, 2) }

func restartAfterPrune(t *testing.T, restarts int) {
	w, nodes, b := foldTopology(t, nil)
	oracle := newMerger()
	want := []byte(nil)
	rounds := 0
	var phase func(id, from, to int)
	var restart func()
	// restart replays node 0's WAL into a fresh node stack, then checks it
	// and runs the next phase of writes.
	restart = func() {
		if !w.Crashed(0) {
			// Crash now, recover once the dead incarnation's waits failed.
			w.Crash(0)
			w.After(5*rt.TicksPerD, restart)
			return
		}
		b.files[0].Crash()
		var recovered *eqaso.Node
		c := b.nodeConfig(0, true)
		build := c.NewEngine
		c.NewEngine = func(shard int, r rt.Runtime) (rt.Handler, svc.Object) {
			h, obj := build(shard, r)
			recovered = h.(*eqaso.Node)
			return h, obj
		}
		nd, err := NewNode(w.Runtime(0), c)
		if err != nil {
			t.Errorf("restart: %v", err)
			return
		}
		nodes[0] = nd
		w.SetHandler(0, nd.Handler())
		w.Restart(0)
		rounds++
		view := recovered.LocalView()
		if view.Pruned() == 0 {
			t.Errorf("restart %d: the recovered log pruned nothing", rounds)
		}
		view.Each(func(v core.Value) {
			for _, rec := range svc.DecodeRecords(v.Payload) {
				if rec.K == "key-0000" && v.TS.Writer == 0 {
					t.Errorf("restart %d: the first own write %v is still retained, so the prune is not exercised", rounds, v.TS)
				}
			}
		})
		if got := view.Extract(3)[0]; !bytes.Equal(got, want) {
			t.Errorf("restart %d: segment recovered from the WAL\n got %x\nwant %x", rounds, got, want)
		}
		w.GoNode("rejoin", 0, func(*sim.Proc) {
			b.rejoins[0].Rejoin()
			serve(w, 0, nd)
			phase(0, 100*rounds, 100*rounds+60)
		})
	}
	// phase has node id write keys [from, to) (every fourth one rewrites an
	// older key); node 0's writes go through the oracle. Node 0's phases end
	// with a snapshot check and the next restart.
	phase = func(id, from, to int) {
		for i := from; i < to; i++ {
			k := fmt.Sprintf("key-%04d", i)
			if i%4 == 3 {
				k = fmt.Sprintf("key-%04d", i/2)
			}
			if id != 0 {
				k = fmt.Sprintf("n%d-%s", id, k)
			}
			v := []byte(fmt.Sprintf("%d@%d", i, id))
			if err := nodes[id].Update(k, v); err != nil {
				t.Errorf("node %d update %d: %v", id, i, err)
				return
			}
			if id == 0 {
				want = oracle.merge([][]byte{svc.EncodeRecords([]svc.Record{{K: k, V: v}})})
			}
		}
		if id != 0 {
			return
		}
		snap, err := nodes[0].Services()[0].Scan()
		if err != nil {
			t.Errorf("scan after phase %d: %v", rounds, err)
			return
		}
		if !bytes.Equal(snap[0], want) {
			t.Errorf("phase %d: node 0's segment in the shard snapshot\n got %x\nwant %x", rounds, snap[0], want)
		}
		if rounds < restarts {
			// Let the other members' writes vouch and prune past this
			// phase's writes before the crash.
			w.After(120*rt.TicksPerD, restart)
		}
	}
	w.GoNode("writer", 0, func(*sim.Proc) { phase(0, 0, 60) })
	for _, id := range []int{1, 2} {
		w.GoNode("writer", id, func(*sim.Proc) { phase(id, 0, 300) })
	}
	closeAll(w, nodes, 5000*rt.TicksPerD)
	if err := w.Run(); err != nil {
		t.Fatalf("sim: %v", err)
	}
	if rounds != restarts {
		t.Fatalf("%d restarts ran, want %d", rounds, restarts)
	}
}
