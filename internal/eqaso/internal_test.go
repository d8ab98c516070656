package eqaso

import (
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"mpsnap/internal/core"
	"mpsnap/internal/rt"
	"mpsnap/internal/sim"
	"mpsnap/internal/transport"
	"mpsnap/internal/wal"
)

// newTestNode builds a node over a throwaway world (white-box tests only
// poke at its local state).
func newTestNode(t *testing.T) *Node {
	t.Helper()
	w := sim.New(sim.Config{N: 3, F: 1, Seed: 1})
	return New(w.Runtime(0))
}

func view(tags ...core.Tag) core.View {
	out := make([]core.Value, 0, len(tags))
	for _, tg := range tags {
		out = append(out, core.Value{TS: core.Timestamp{Tag: tg, Writer: 0}, Payload: []byte("x")})
	}
	return core.ViewOf(out...)
}

func TestBestViewAtLeast(t *testing.T) {
	nd := newTestNode(t)
	if _, _, ok := nd.bestViewAtLeast(1); ok {
		t.Fatal("empty node must have no view")
	}
	nd.ownGood[3] = view(1, 2, 3)
	nd.addBorrow(5, 2, view(1, 2, 3, 4, 5))
	nd.addBorrow(5, 1, view(1, 2, 3, 4))

	tag, v, ok := nd.bestViewAtLeast(1)
	if !ok || tag != 3 || v.Len() != 3 {
		t.Fatalf("want own view at tag 3, got tag=%d len=%d ok=%v", tag, v.Len(), ok)
	}
	tag, v, ok = nd.bestViewAtLeast(4)
	if !ok || tag != 5 {
		t.Fatalf("want borrowed view at tag 5, got tag=%d ok=%v", tag, ok)
	}
	// Deterministic sender choice: smallest node id (1) wins.
	if v.Len() != 4 {
		t.Fatalf("want node 1's view (len 4), got len %d", v.Len())
	}
	if _, _, ok := nd.bestViewAtLeast(6); ok {
		t.Fatal("no view with tag ≥ 6 exists")
	}
}

func TestPruneBelowKeepsLargest(t *testing.T) {
	nd := newTestNode(t)
	nd.ownGood[1] = view(1)
	nd.ownGood[2] = view(1, 2)
	nd.addBorrow(3, 1, view(1, 2, 3))
	nd.pruneBelow(10) // would remove everything — must keep the largest
	if len(nd.ownGood) != 0 {
		t.Fatalf("ownGood should be pruned, have %d", len(nd.ownGood))
	}
	if _, ok := nd.borrow[3]; !ok {
		t.Fatal("largest view (tag 3) must be retained")
	}
	nd2 := newTestNode(t)
	nd2.ownGood[1] = view(1)
	nd2.ownGood[4] = view(1, 2, 3, 4)
	nd2.addBorrow(2, 2, view(1, 2))
	nd2.pruneBelow(3)
	if _, ok := nd2.ownGood[1]; ok {
		t.Fatal("tag 1 must be pruned")
	}
	if _, ok := nd2.borrow[2]; ok {
		t.Fatal("borrowed tag 2 must be pruned")
	}
	if _, ok := nd2.ownGood[4]; !ok {
		t.Fatal("tag 4 must survive")
	}
}

func TestAddBorrowOverwritesPerSender(t *testing.T) {
	nd := newTestNode(t)
	nd.addBorrow(1, 2, view(1))
	nd.addBorrow(1, 2, view(1, 2))
	if got := nd.borrow[1][2].Len(); got != 2 {
		t.Fatalf("latest borrow should win, len=%d", got)
	}
	nd.addBorrow(1, 0, view(1, 2, 3))
	if len(nd.borrow[1]) != 2 {
		t.Fatalf("two senders expected, got %d", len(nd.borrow[1]))
	}
}

// sortedBestViewAtLeast is the sort-based rule bestViewAtLeast replaced:
// own good views in tag order, then each borrowed tag's lowest sender,
// the first strictly smaller tag winning.
func sortedBestViewAtLeast(nd *Node, r core.Tag) (core.Tag, core.View, bool) {
	bestTag := core.Tag(-1)
	var bestView core.View
	consider := func(tag core.Tag, view core.View) {
		if tag >= r && (bestTag < 0 || tag < bestTag) {
			bestTag, bestView = tag, view
		}
	}
	own := make([]core.Tag, 0, len(nd.ownGood))
	for tag := range nd.ownGood {
		own = append(own, tag)
	}
	slices.Sort(own)
	for _, tag := range own {
		consider(tag, nd.ownGood[tag])
	}
	for tag, byNode := range nd.borrow {
		if tag < r {
			continue
		}
		nodes := make([]int, 0, len(byNode))
		for j := range byNode {
			nodes = append(nodes, j)
		}
		slices.Sort(nodes)
		consider(tag, byNode[nodes[0]])
	}
	if bestTag < 0 {
		return 0, core.View{}, false
	}
	return bestTag, bestView, true
}

// TestBestViewAtLeastMatchesSortedRule: on random good-view caches, the
// one-pass bestViewAtLeast picks what the sort-based rule picked — the
// smallest tag, the node's own view on a tie, a borrowed tag's lowest
// sender — and allocates nothing.
func TestBestViewAtLeastMatchesSortedRule(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		nd := newTestNode(t)
		// Each view is told apart by its one value: writer = holder
		// (3 = the node's own), tag = the cached tag.
		labelled := func(tag core.Tag, holder int) core.View {
			return core.ViewOf(core.Value{TS: core.Timestamp{Tag: tag, Writer: holder}, Payload: []byte("x")})
		}
		for i := rng.Intn(4); i > 0; i-- {
			tag := core.Tag(1 + rng.Intn(12))
			nd.ownGood[tag] = labelled(tag, 3)
		}
		for i := rng.Intn(8); i > 0; i-- {
			tag, from := core.Tag(1+rng.Intn(12)), rng.Intn(3)
			nd.addBorrow(tag, from, labelled(tag, from))
		}
		for r := core.Tag(0); r <= 13; r++ {
			gotTag, gotView, gotOK := nd.bestViewAtLeast(r)
			wantTag, wantView, wantOK := sortedBestViewAtLeast(nd, r)
			if gotOK != wantOK || gotTag != wantTag || !reflect.DeepEqual(gotView.Timestamps(), wantView.Timestamps()) {
				t.Fatalf("trial %d, r=%d: got (%d, %v, %v), want (%d, %v, %v)", trial, r,
					gotTag, gotView.Timestamps(), gotOK, wantTag, wantView.Timestamps(), wantOK)
			}
		}
		if allocs := testing.AllocsPerRun(10, func() { nd.bestViewAtLeast(1) }); allocs != 0 {
			t.Fatalf("bestViewAtLeast allocates %v times, want 0", allocs)
		}
	}
}

// TestNoteVouchBuffersUnverifiable: a vouch that arrives while this
// node's log still lags the vouched prefix must not be dropped — it is
// buffered and applied once the local frontier catches up, so GC cannot
// stall waiting for the peer's next vouch.
func TestNoteVouchBuffersUnverifiable(t *testing.T) {
	nd := newTestNode(t)
	nd.AttachWAL(wal.NewWriter(wal.NewMemFile(), 1), true)
	// The vouching peer's log: two values, frontier advanced.
	peer := core.NewValueLog(3, 1)
	v1 := core.Value{TS: core.Timestamp{Tag: 1, Writer: 1}, Payload: []byte("a")}
	v2 := core.Value{TS: core.Timestamp{Tag: 2, Writer: 1}, Payload: []byte("b")}
	peer.Add(1, v1)
	peer.Add(1, v2)
	peer.AdvanceFrontier(2)
	ck := peer.Frontier()

	// The vouch outruns nd (empty log): not verifiable, must be buffered.
	nd.noteVouch(1, ck)
	if nd.vouched[1].Count != 0 {
		t.Fatalf("unverifiable vouch recorded as verified: %+v", nd.vouched[1])
	}
	if nd.rawVouch[1] != ck {
		t.Fatalf("raw vouch not buffered: %+v", nd.rawVouch[1])
	}

	// nd catches up and its frontier advances (the path a good lattice
	// operation takes): the buffered vouch must apply now.
	nd.log.Add(1, v1)
	nd.log.Add(1, v2)
	nd.log.AdvanceFrontier(2)
	nd.vouchFrontier()
	if nd.vouched[1] != ck {
		t.Fatalf("buffered vouch not applied after catch-up: %+v", nd.vouched[1])
	}
}

func TestMessageKinds(t *testing.T) {
	kinds := map[string]bool{}
	for _, k := range []string{
		MsgValue{}.Kind(), MsgReadTag{}.Kind(), MsgReadAck{}.Kind(),
		MsgWriteTag{}.Kind(), MsgWriteAck{}.Kind(), MsgEchoTag{}.Kind(),
		MsgGoodLA{}.Kind(), MsgBorrowReq{}.Kind(), MsgGoodView{}.Kind(),
		MsgGoodViewDelta{}.Kind(), MsgBorrowNak{}.Kind(),
	} {
		if kinds[k] {
			t.Fatalf("duplicate message kind %q", k)
		}
		kinds[k] = true
	}
}

// newCluster builds n node states over one throwaway world (no scheduler
// runs; white-box tests drive handlers directly).
func newCluster(t *testing.T, n, f int) []*Node {
	t.Helper()
	w := sim.New(sim.Config{N: n, F: f, Seed: 1})
	nodes := make([]*Node, n)
	for i := range nodes {
		nodes[i] = New(w.Runtime(i))
	}
	return nodes
}

func TestBorrowSampleSizeAndDeterminism(t *testing.T) {
	nodes := newCluster(t, 5, 2)
	k := 5 - nodes[0].quorum + 1 // f+1
	for src := 0; src < 5; src++ {
		for tag := core.Tag(1); tag <= 40; tag++ {
			count := 0
			for _, nd := range nodes {
				in := nd.inSample(src, tag)
				if in != nd.inSample(src, tag) {
					t.Fatal("inSample must be deterministic")
				}
				if nd.id == src && in {
					t.Fatalf("requester %d sampled itself at tag %d", src, tag)
				}
				if in {
					count++
				}
			}
			if count != k {
				t.Fatalf("src=%d tag=%d: %d sampled responders, want f+1=%d", src, tag, count, k)
			}
		}
	}
	// The rotation must spread load: over many tags, every non-requester
	// should be sampled at least once.
	for _, nd := range nodes[1:] {
		hit := false
		for tag := core.Tag(1); tag <= 40 && !hit; tag++ {
			hit = nd.inSample(0, tag)
		}
		if !hit {
			t.Fatalf("node %d never sampled for src 0 over 40 tags", nd.id)
		}
	}
}

func TestBorrowReqGatingSuppressesOffSampleReplies(t *testing.T) {
	nodes := newCluster(t, 5, 2)
	nd := nodes[1]
	const src = 0
	var sampled, suppressed int
	for tag := core.Tag(1); tag <= 30; tag++ {
		if nd.inSample(src, tag) {
			sampled++
		}
		nd.HandleMessage(src, MsgBorrowReq{Tag: tag, Attempt: 0})
	}
	suppressed = int(nd.stats.BorrowsSuppressed)
	if suppressed == 0 || sampled == 0 {
		t.Fatalf("want both outcomes over 30 tags: sampled=%d suppressed=%d", sampled, suppressed)
	}
	if suppressed+sampled != 30 {
		t.Fatalf("each request either answered or suppressed: %d+%d != 30", sampled, suppressed)
	}
	// Attempt 1 (escalated) requests are never suppressed: all are parked
	// (this node holds no good view) with a nak sent.
	before := nd.stats.BorrowsSuppressed
	nd.HandleMessage(src, MsgBorrowReq{Tag: 99, Attempt: 1})
	if nd.stats.BorrowsSuppressed != before {
		t.Fatal("attempt-1 borrowReq must not be gated")
	}
	if _, ok := nd.pending[src]; !ok {
		t.Fatal("unanswerable borrowReq must be parked as pending")
	}
}

func TestServeBorrowDeltaVsFullReply(t *testing.T) {
	nodes := newCluster(t, 3, 1)
	nd := nodes[0]
	for i := 1; i <= 6; i++ {
		nd.log.AddSelf(core.Value{TS: core.Timestamp{Tag: core.Tag(i), Writer: 0}, Payload: []byte("x")})
	}
	nd.log.AdvanceFrontier(4)
	view := nd.log.ViewLE(6)
	nd.ownGood[6] = view

	// The requester advertises the same frozen prefix: delta reply.
	nd.serveBorrow(1, 5, nd.log.Frontier())
	if nd.stats.BorrowDeltaReplies != 1 || nd.stats.BorrowFullReplies != 0 {
		t.Fatalf("want delta reply for a vouched checkpoint: %+v", nd.stats)
	}
	// A checkpoint this log cannot vouch for: full view.
	nd.serveBorrow(1, 5, core.Checkpoint{Tag: 4, Count: 4, Digest: 12345})
	if nd.stats.BorrowFullReplies != 1 {
		t.Fatalf("want full reply for a foreign checkpoint: %+v", nd.stats)
	}
	// The empty checkpoint (fresh requester) is always vouched: the delta
	// is the whole view, equivalent to a full reply in size but uniform.
	nd.serveBorrow(2, 5, core.Checkpoint{})
	if nd.stats.BorrowDeltaReplies != 2 {
		t.Fatalf("empty checkpoint should take the delta path: %+v", nd.stats)
	}
}

func TestPendingBorrowServedOnNewView(t *testing.T) {
	nodes := newCluster(t, 3, 1)
	nd := nodes[0]
	nd.serveBorrow(2, 5, core.Checkpoint{})
	if _, ok := nd.pending[2]; !ok {
		t.Fatal("no view yet: request must be parked")
	}
	// A too-small view does not serve the request.
	nd.addBorrow(3, 1, view(1, 2, 3))
	nd.servePending()
	if nd.stats.BorrowPendingServed != 0 {
		t.Fatalf("tag-3 view must not satisfy a tag-5 borrow: %+v", nd.stats)
	}
	// A covering view does.
	nd.addBorrow(6, 1, view(1, 2, 3, 4, 6))
	nd.servePending()
	if nd.stats.BorrowPendingServed != 1 {
		t.Fatalf("pending borrow should be served: %+v", nd.stats)
	}
	if _, ok := nd.pending[2]; ok {
		t.Fatal("served request must leave the pending set")
	}
}

func TestMaybeEscalateOnce(t *testing.T) {
	nodes := newCluster(t, 3, 1)
	nd := nodes[0]
	nd.maybeEscalate(7) // no borrow in flight: no-op
	if nd.stats.BorrowsEscalated != 0 {
		t.Fatal("escalation without an in-flight borrow")
	}
	nd.curBorrow = &borrowWait{tag: 7}
	nd.maybeEscalate(5) // stale tag: no-op
	nd.maybeEscalate(7)
	nd.maybeEscalate(7) // second nak: already escalated
	if nd.stats.BorrowsEscalated != 1 || !nd.curBorrow.escalated {
		t.Fatalf("want exactly one escalation: %+v", nd.stats)
	}
}

// recordingRuntime records the node's broadcasts on their way out.
type recordingRuntime struct {
	rt.Runtime
	sent []rt.Message
}

func (r *recordingRuntime) Broadcast(m rt.Message) {
	r.sent = append(r.sent, m)
	r.Runtime.Broadcast(m)
}

// TestValueHeldBackUntilItsPredecessor: writer 0's value t2 reaches node 1
// before t1 — t1's direct copy was lost and its forward from node 2 is
// late. t2 waits: it is neither in node 1's log nor forwarded. When t1
// arrives, both enter the log and go out, t1 first, each naming its
// predecessor.
func TestValueHeldBackUntilItsPredecessor(t *testing.T) {
	w := sim.New(sim.Config{N: 3, F: 1, Seed: 1})
	r := &recordingRuntime{Runtime: w.Runtime(1)}
	nd := New(r)
	t1 := core.Value{TS: core.Timestamp{Tag: 1, Writer: 0}, Payload: []byte("a")}
	t2 := core.Value{TS: core.Timestamp{Tag: 3, Writer: 0}, Payload: []byte("b")}

	nd.HandleMessage(0, MsgValue{Val: t2, Prev: 1})
	if nd.log.Has(t2.TS) || len(r.sent) != 0 {
		t.Fatalf("t2 admitted or forwarded before t1: in log %v, sent %v", nd.log.Has(t2.TS), r.sent)
	}
	if nd.stats.HeldBack != 1 {
		t.Fatalf("HeldBack = %d, want 1", nd.stats.HeldBack)
	}

	nd.HandleMessage(2, MsgValue{Val: t1, Prev: 0})
	if !nd.log.Has(t1.TS) || !nd.log.Has(t2.TS) {
		t.Fatalf("after t1: t1 in log %v, t2 in log %v, want both", nd.log.Has(t1.TS), nd.log.Has(t2.TS))
	}
	want := []rt.Message{MsgValue{Val: t1, Prev: 0}, MsgValue{Val: t2, Prev: 1}}
	if !reflect.DeepEqual(r.sent, want) {
		t.Fatalf("forwarded %v, want %v", r.sent, want)
	}
	// Each value is credited to the peer it came from.
	if nd.log.Len(0) != 1 || nd.log.Len(2) != 1 {
		t.Fatalf("V[0] has %d values, V[2] has %d: want t2 from 0 and t1 from 2", nd.log.Len(0), nd.log.Len(2))
	}
	if len(nd.held) != 0 {
		t.Fatalf("values still held: %v", nd.held)
	}
	// t2's late forward is a duplicate: credited, not held, not forwarded.
	nd.HandleMessage(2, MsgValue{Val: t2, Prev: 1})
	if nd.stats.HeldBack != 1 || len(r.sent) != 2 || nd.log.Len(2) != 2 {
		t.Fatalf("duplicate t2: HeldBack %d, %d sent, V[2] %d values", nd.stats.HeldBack, len(r.sent), nd.log.Len(2))
	}
}

// TestSecondConcurrentOperationPanics: a node has one sequential client
// thread (the paper's Section II-A), and its operation's state is node
// state, so an operation started while another is in flight panics, naming
// the rule, instead of corrupting the first.
func TestSecondConcurrentOperationPanics(t *testing.T) {
	net := transport.NewChanNet(transport.ChanConfig{N: 3, F: 1, D: 20 * time.Microsecond})
	defer net.Close()
	nodes := make([]*Node, 3)
	for i := range nodes {
		nodes[i] = New(net.Runtime(i))
		net.SetHandler(i, nodes[i])
	}
	// Without its peers node 0's readTag never gathers a quorum, so its
	// first operation stays in flight until node 0 crashes.
	net.Crash(1)
	net.Crash(2)
	first := make(chan error, 1)
	go func() { first <- nodes[0].Update([]byte("a")) }()
	for !nodes[0].busy.Load() {
		runtime.Gosched()
	}
	got := func() (r any) {
		defer func() { r = recover() }()
		_, _ = nodes[0].Scan()
		return nil
	}()
	if msg, _ := got.(string); !strings.Contains(msg, "one sequential client thread") {
		t.Errorf("a second operation in flight: recovered %v, want a panic naming the one-client rule", got)
	}
	net.Crash(0)
	if err := <-first; !errors.Is(err, rt.ErrCrashed) {
		t.Errorf("first operation ended with %v, want rt.ErrCrashed", err)
	}
}
