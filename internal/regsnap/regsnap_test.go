package regsnap

import (
	"errors"
	"math/rand"
	"testing"

	"mpsnap/internal/engine"
	"mpsnap/internal/harness"
	"mpsnap/internal/rt"
	"mpsnap/internal/sim"
	"mpsnap/internal/wire"
)

// engines is the table every test runs over. Nodes are built through the
// registry, so the rule under test is the one engine.Register wired to the
// name.
var engines = []string{"acr", "fastsnap"}

func newByName(name string, r rt.Runtime) *Node {
	return engine.MustLookup(name).New(r).(*Node)
}

// build makes a simulated cluster of the named engine and returns the
// nodes alongside it, for Stats.
func build(name string, cfg sim.Config) (*harness.Cluster, []*Node) {
	nodes := make([]*Node, cfg.N)
	c := harness.Build(cfg, func(r rt.Runtime) (rt.Handler, harness.Object) {
		nd := newByName(name, r)
		nodes[r.ID()] = nd
		return nd, nd
	})
	return c, nodes
}

// TestFirstCollectRule pins the one difference between the engines on a
// quiesced n=5, f=2 constant-D cluster: fastsnap's first collect is
// unanimous, so both scans take 2D and each announces a commit; acr's
// first scan finds the cache stale and pays the push round (4D, one
// commit), its second returns the cache in 2D with no broadcast — the
// 2D/4D shape BENCH_engines.json records.
func TestFirstCollectRule(t *testing.T) {
	const n, D = 5, rt.TicksPerD
	for _, tc := range []struct {
		engine  string
		lat     [2]rt.Ticks
		stats   Stats
		commits int64 // MsgCommit broadcasts
	}{
		{"acr", [2]rt.Ticks{4 * D, 2 * D}, Stats{Scans: 2, FastScans: 1, SlowScans: 1, Rounds: 3}, 1},
		{"fastsnap", [2]rt.Ticks{2 * D, 2 * D}, Stats{Scans: 2, FastScans: 2, Rounds: 2}, 2},
	} {
		t.Run(tc.engine, func(t *testing.T) {
			c, nodes := build(tc.engine, sim.Config{N: n, F: 2, Seed: 1, Delay: sim.Constant{Ticks: D}})
			for i := 1; i < n; i++ {
				c.Client(i, func(o *harness.OpRunner) {
					if _, err := o.Update(); err != nil {
						t.Errorf("update: %v", err)
					}
				})
			}
			var lat [2]rt.Ticks
			var snaps [2][]string
			c.Client(0, func(o *harness.OpRunner) {
				// Every update has completed and reached all n servers.
				if err := o.P.Sleep(10 * D); err != nil {
					t.Errorf("sleep: %v", err)
					return
				}
				for k := range lat {
					start := o.P.Now()
					snap, err := o.Scan()
					if err != nil {
						t.Errorf("scan %d: %v", k, err)
						return
					}
					lat[k], snaps[k] = o.P.Now()-start, snap
				}
			})
			if _, err := c.MustLinearizable(); err != nil {
				t.Fatal(err)
			}
			// Self-delivery takes a tick each way; the quorum needs remote
			// replies, so the round trip is 2D sharp.
			if lat != tc.lat {
				t.Errorf("scan latencies = %v, want %v", lat, tc.lat)
			}
			want := []string{"", "v1-1", "v2-1", "v3-1", "v4-1"}
			for k, snap := range snaps {
				for i := range want {
					if snap[i] != want[i] {
						t.Fatalf("scan %d = %v, want %v", k, snap, want)
					}
				}
			}
			got := nodes[0].Stats()
			if got != tc.stats {
				t.Errorf("Stats = %+v, want %+v", got, tc.stats)
			}
			if got := c.W.Stats().MsgsByKind[MsgCommit{}.Kind()]; got != tc.commits*n {
				t.Errorf("%d MsgCommit sends, want %d broadcasts of %d", got, tc.commits, n)
			}
		})
	}
}

// TestSlowPathUnderContention runs scanners against continuous writers on
// random delays: scans must leave the fast path, still converge, and the
// history must be linearizable.
func TestSlowPathUnderContention(t *testing.T) {
	for _, name := range engines {
		t.Run(name, func(t *testing.T) {
			var total Stats
			for seed := int64(1); seed <= 8; seed++ {
				const n = 5
				c, nodes := build(name, sim.Config{N: n, F: 2, Seed: seed})
				for i := 0; i < n; i++ {
					i := i
					c.Client(i, func(o *harness.OpRunner) {
						rng := rand.New(rand.NewSource(seed*31 + int64(i)))
						for k := 0; k < 12; k++ {
							var err error
							if i < 2 { // two scanners, three writers
								_, err = o.Scan()
							} else {
								_, err = o.Update()
							}
							if err != nil {
								t.Errorf("seed %d node %d: %v", seed, i, err)
								return
							}
							_ = o.P.Sleep(rt.Ticks(rng.Intn(300)))
						}
					})
				}
				if _, err := c.MustLinearizable(); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				for _, nd := range nodes {
					st := nd.Stats()
					if st.Scans != st.FastScans+st.SlowScans {
						t.Fatalf("seed %d: Scans %d != Fast %d + Slow %d", seed, st.Scans, st.FastScans, st.SlowScans)
					}
					total.Scans += st.Scans
					total.SlowScans += st.SlowScans
					total.AdoptedScans += st.AdoptedScans
					total.Rounds += st.Rounds
				}
			}
			t.Logf("scans=%d slow=%d adopted=%d rounds=%d", total.Scans, total.SlowScans, total.AdoptedScans, total.Rounds)
			if total.SlowScans == 0 {
				t.Error("no scan took the slow path under concurrent writers")
			}
			if total.Rounds < total.Scans+total.SlowScans {
				t.Errorf("Rounds = %d: a slow scan is at least two rounds (scans=%d slow=%d)", total.Rounds, total.Scans, total.SlowScans)
			}
		})
	}
}

// fakeRT is a hand-cranked runtime for handler-level tests: sends are
// recorded, and a blocked wait calls feed — where the test plays the
// peers by calling HandleMessage — until its predicate holds.
type fakeRT struct {
	id, n, f int
	sent     []sent
	feed     func()
}

type sent struct {
	dst int // -1: broadcast
	msg rt.Message
}

func (r *fakeRT) ID() int                    { return r.id }
func (r *fakeRT) N() int                     { return r.n }
func (r *fakeRT) F() int                     { return r.f }
func (r *fakeRT) Send(dst int, m rt.Message) { r.sent = append(r.sent, sent{dst, m}) }
func (r *fakeRT) Broadcast(m rt.Message)     { r.sent = append(r.sent, sent{-1, m}) }
func (r *fakeRT) Atomic(fn func())           { fn() }
func (r *fakeRT) Now() rt.Ticks              { return 0 }
func (r *fakeRT) Crashed() bool              { return false }
func (r *fakeRT) WaitUntilThen(label string, pred func() bool, then func()) error {
	for i := 0; !pred(); i++ {
		if r.feed == nil || i > 100 {
			return errors.New("fakeRT: stuck in " + label)
		}
		r.feed()
	}
	then()
	return nil
}

// lastBroadcast returns the most recent send, which must be a broadcast.
func (r *fakeRT) lastBroadcast(t *testing.T) rt.Message {
	t.Helper()
	if len(r.sent) == 0 || r.sent[len(r.sent)-1].dst != -1 {
		t.Fatalf("no broadcast at the tail of %v", r.sent)
	}
	return r.sent[len(r.sent)-1].msg
}

func vec(seqs ...int64) []Entry {
	out := make([]Entry, len(seqs))
	for i, s := range seqs {
		if s > 0 {
			out[i] = Entry{Seq: s, Val: []byte{byte('a' + i)}}
		}
	}
	return out
}

// TestAdoption drives one scan by hand on n=3, f=1: the first collect's
// two replies disagree, so the scanner pushes their merge; before any
// push reply arrives a peer's MsgCommit covering that merge lands, and
// the scan must finish by adopting it.
func TestAdoption(t *testing.T) {
	for _, name := range engines {
		t.Run(name, func(t *testing.T) {
			r := &fakeRT{id: 0, n: 3, f: 1}
			nd := newByName(name, r)
			r.feed = func() {
				switch m := r.lastBroadcast(t).(type) {
				case MsgCollect:
					nd.HandleMessage(1, MsgCollectAck{ReqID: m.ReqID, Vec: vec(1, 0, 0)})
					nd.HandleMessage(2, MsgCollectAck{ReqID: m.ReqID, Vec: vec(0, 1, 0)})
				case MsgPush:
					if !sameSeqs(m.Vec, vec(1, 1, 0)) {
						t.Fatalf("pushed %v, want the merge of the first collect", m.Vec)
					}
					nd.HandleMessage(1, MsgCommit{Vec: vec(1, 1, 2)})
				default:
					t.Fatalf("waiting after %T", m)
				}
			}
			snap, err := nd.Scan()
			if err != nil {
				t.Fatal(err)
			}
			if got := harness.SnapStrings(snap); got[0] != "a" || got[1] != "b" || got[2] != "c" {
				t.Errorf("snap = %q, want the adopted commit [a b c]", got)
			}
			want := Stats{Scans: 1, SlowScans: 1, AdoptedScans: 1, Rounds: 2}
			if got := nd.Stats(); got != want {
				t.Errorf("Stats = %+v, want %+v", got, want)
			}
			if len(nd.colls) != 0 {
				t.Errorf("%d rounds left registered", len(nd.colls))
			}
		})
	}
}

// TestHandlerIgnoresMalformed: replies that do not fit the cluster or
// belong to no open request must leave every piece of state alone.
func TestHandlerIgnoresMalformed(t *testing.T) {
	for _, name := range engines {
		t.Run(name, func(t *testing.T) {
			r := &fakeRT{id: 0, n: 3, f: 1}
			nd := newByName(name, r)
			zero := vec(0, 0, 0)
			untouched := func(when string) {
				t.Helper()
				if !sameSeqs(nd.regs, zero) || !sameSeqs(nd.committed, zero) {
					t.Fatalf("%s changed state: regs=%v committed=%v", when, nd.regs, nd.committed)
				}
			}

			nd.HandleMessage(1, MsgCommit{Vec: vec(5, 5)})
			untouched("short MsgCommit")
			nd.HandleMessage(1, MsgCommit{Vec: vec(5, 5, 5, 5)})
			untouched("long MsgCommit")
			nd.HandleMessage(1, MsgCollectAck{ReqID: 99, Vec: vec(5, 5, 5), Com: vec(5, 5, 5)})
			untouched("MsgCollectAck for an unknown request")
			nd.HandleMessage(1, MsgWriteAck{ReqID: 99})
			if len(nd.acks) != 0 || len(nd.colls) != 0 {
				t.Fatalf("acks for unknown requests registered state: acks=%v colls=%v", nd.acks, nd.colls)
			}
			for _, src := range []int{-1, 3} {
				nd.HandleMessage(src, MsgWrite{ReqID: 1, Seq: 7, Val: []byte("x")})
				untouched("MsgWrite from an out-of-range src")
			}

			// Inside an open round: wrong-length vectors do not count
			// toward the quorum; the scan completes on the two good ones.
			r.feed = func() {
				m, ok := r.lastBroadcast(t).(MsgCollect)
				if !ok {
					t.Fatalf("waiting after %T", r.lastBroadcast(t))
				}
				st := nd.colls[m.ReqID]
				nd.HandleMessage(1, MsgCollectAck{ReqID: m.ReqID, Vec: vec(5, 5)})
				nd.HandleMessage(1, MsgCollectAck{ReqID: m.ReqID, Vec: vec(5, 5, 5, 5)})
				nd.HandleMessage(1, MsgCollectAck{ReqID: m.ReqID, Vec: zero, Com: vec(5, 5)})
				if st.count != 0 {
					t.Fatalf("malformed replies counted: %d", st.count)
				}
				untouched("malformed MsgCollectAck")
				nd.HandleMessage(1, MsgCollectAck{ReqID: m.ReqID, Vec: zero})
				nd.HandleMessage(2, MsgCollectAck{ReqID: m.ReqID, Vec: zero})
			}
			if _, err := nd.Scan(); err != nil {
				t.Fatal(err)
			}
			if st := nd.Stats(); st.FastScans != 1 {
				t.Errorf("Stats = %+v, want the scan to finish on its first collect", st)
			}
		})
	}
}

// TestUpdateBatch: a batch is one write round carrying only its last
// payload, under one new sequence number.
func TestUpdateBatch(t *testing.T) {
	for _, name := range engines {
		t.Run(name, func(t *testing.T) {
			r := &fakeRT{id: 0, n: 3, f: 1}
			nd := newByName(name, r)
			var b engine.Batcher = nd
			r.feed = func() {
				m := r.lastBroadcast(t).(MsgWrite)
				nd.HandleMessage(1, MsgWriteAck{ReqID: m.ReqID})
				nd.HandleMessage(2, MsgWriteAck{ReqID: m.ReqID})
			}
			if err := b.UpdateBatch(nil); err != nil || len(r.sent) != 0 {
				t.Fatalf("empty batch: err=%v sent=%v", err, r.sent)
			}
			if err := b.UpdateBatch([][]byte{[]byte("p1"), []byte("p2"), []byte("p3")}); err != nil {
				t.Fatal(err)
			}
			if len(r.sent) != 1 {
				t.Fatalf("sent %v, want one broadcast", r.sent)
			}
			m := r.lastBroadcast(t).(MsgWrite)
			if m.Seq != 1 || string(m.Val) != "p3" {
				t.Errorf("wrote (seq %d, %q), want (1, p3)", m.Seq, m.Val)
			}
			if nd.mySeq != 1 || len(nd.acks) != 0 {
				t.Errorf("mySeq=%d acks=%v after one batch", nd.mySeq, nd.acks)
			}
			if st := nd.Stats(); st.Updates != 1 {
				t.Errorf("Stats.Updates = %d, want 1", st.Updates)
			}
		})
	}
}

// TestRetiredWireTags: 133 and 144–149 were on the wire before the two
// engines shared one message set; a frame carrying one must stay
// undecodable, never be read as some newer message.
func TestRetiredWireTags(t *testing.T) {
	for _, c := range wire.Registered() {
		if c.Tag == 133 || (c.Tag >= 144 && c.Tag <= 159) {
			t.Errorf("tag %d is registered (%T); 133 and 144–149 are retired and 150–159 unassigned", c.Tag, c.Proto)
		}
	}
}
