// Package eqaso implements EQ-ASO (Algorithm 1 of the paper): the
// crash-tolerant atomic snapshot object based on equivalence quorums, with
// O(√k·D) worst-case and amortized O(D) time for UPDATE and SCAN given
// n > 2f.
//
// Two deliberate deviations from the pseudocode, both required for
// liveness and documented in DESIGN.md:
//
//  1. The "writeTag" handler acknowledges every request; only the maxTag
//     adoption and the "echoTag" broadcast are guarded by tag > maxTag.
//     (Acknowledging only larger tags would block a writeTag quorum wait
//     forever once the tag is stale.)
//
//  2. The borrow phase (line 29) accepts a good view with any tag ≥ r and
//     additionally broadcasts a "borrowReq", answered by peers with an
//     explicit "goodView". This keeps LatticeRenewal live even when the
//     original goodLA broadcast was truncated by the sender's crash. Any
//     good view with tag ≥ r preserves conditions (A1)-(A4): good views
//     are pairwise comparable (Lemma 2), and larger views only grow bases.
//
// Local state lives in a core.ValueLog (one shared timestamp-sorted array
// with per-peer cursors) rather than n separate value maps, which makes
// the per-operation cost independent of the history length: EQ tracker
// setup is O(n log H), good views are zero-copy prefixes of the frozen
// log, and borrow replies ship only the delta above the requester's
// stable frontier (see DESIGN.md §8).
package eqaso

import (
	"sort"
	"sync/atomic"

	"mpsnap/internal/core"
	"mpsnap/internal/rt"
	"mpsnap/internal/wal"
)

// Stats counts a node's operations and lattice activity.
type Stats struct {
	Updates       int64 // values written (a k-batch counts k)
	Batches       int64 // update round sequences (single updates count 1)
	Scans         int64
	LatticeOps    int64
	DirectViews   int64
	IndirectViews int64

	// Borrow-protocol counters (see the borrowReq gating in node.go).
	BorrowsSuppressed   int64 // borrowReq received but not in the sample → no reply
	BorrowsEscalated    int64 // borrow attempts rebroadcast to everyone
	BorrowDeltaReplies  int64 // goodViewDelta replies sent (frontier matched)
	BorrowFullReplies   int64 // full goodView replies sent
	BorrowPendingServed int64 // replies sent late, once a view became known
	BorrowDeltaRejects  int64 // received deltas whose checkpoint no longer matched

	// Durability and garbage-collection counters (a node without a WAL
	// counts only its prunes: its vouches ride goodLA).
	VouchesSent        int64 // checkpoint vouches broadcast after a durable frontier advance
	LogPrunes          int64 // value-log prefixes garbage-collected
	RejoinDeltaReplies int64 // rejoinReq answered with a delta above the base
	RejoinFullReplies  int64 // rejoinReq answered with a full standalone view
	Rejoins            int64 // crash-recovery rejoins performed by this node
	WALAppends         int64 // records written to the WAL
	WALSyncs           int64 // file syncs paid for them (own values' plus the every-batch-appends ones)

	// HeldBack counts values that arrived before their writer's previous
	// value and waited for it. Channels are FIFO and every value is
	// forwarded by every node, so only a lost message causes one: a drop,
	// or a delivery missed while this node was down.
	HeldBack int64
}

// call is the node's one in-flight quorum call, a readTag or a writeTag.
// HandleMessage counts an ack only when its ReqID is req; req is 0 between
// calls, so a late ack of an earlier call is ignored.
type call struct {
	req  int64
	acks int
	max  core.Tag // readTag: the largest maxTag acked, seeded with the node's own
}

// step carries the client thread's inputs into the critical sections built
// in New, and their results back out. The client clears it when its
// operation ends, so it retains no view or payload between operations.
type step struct {
	r        core.Tag // the tag the lattice operation, or the borrow, works at
	good     bool     // the EQ wait's verdict: maxTag ≤ r
	view     core.View
	payloads [][]byte
	tss      []core.Timestamp
	walErr   error
}

// pendingBorrow is a borrowReq this node could not answer yet: it is
// served as soon as a covering good view becomes known (the requester was
// told to wait with a borrowNak).
type pendingBorrow struct {
	tag  core.Tag
	base core.Checkpoint
}

// heldValue is a value received from src before its writer's previous
// value (tag prev) was admitted: it waits in Node.held, unlogged and
// unforwarded.
type heldValue struct {
	src  int
	val  core.Value
	prev core.Tag
}

// borrowWait is the client thread's in-flight borrow, visible to the
// server thread so a borrowNak or a stale delta can trigger the one-time
// escalation from the sampled request to a full broadcast.
type borrowWait struct {
	tag       core.Tag
	base      core.Checkpoint
	escalated bool
}

// Node is one EQ-ASO node: the server-thread state of Algorithm 1 plus the
// client-thread operations Update and Scan. Install it as the node's
// message handler and invoke operations from the node's client thread.
type Node struct {
	rt     rt.Runtime
	id     int
	n      int
	quorum int // n - f

	// Algorithm 1 local variables. log holds V[0..n-1] (the per-peer value
	// sets) as one shared value log.
	log     *core.ValueLog
	maxTag  core.Tag                       // largest tag seen via writeTag/echoTag
	borrow  map[core.Tag]map[int]core.View // D, kept per (tag, sender)
	ownGood map[core.Tag]core.View         // this node's good-lattice views

	// lastGood[j] is the tag of node j's latest goodLA (0: none since its
	// last rejoin); trimmed is the tag noteGood last trimmed the caches to.
	lastGood []core.Tag
	trimmed  core.Tag

	// The client thread's operation (Section II-A: a node has one
	// sequential client thread, so at most one operation, one quorum call
	// and one EQ wait are ever in flight, and their state is the node's).
	// busy marks an operation in flight; eq is the EQ tracker each lattice
	// operation re-arms, and wait points at it while an EQ wait is active.
	busy    atomic.Bool
	nextReq int64
	call    call
	eq      core.EQTracker
	wait    *core.EQTracker
	step    step
	cs      sections

	// Borrow protocol state. curBorrow points at borrowing while the
	// client thread's borrow is in flight.
	pending   map[int]pendingBorrow // requester id → unanswered borrowReq
	curBorrow *borrowWait
	borrowing borrowWait

	// Hold-back state: ownTag is the tag of this node's latest own value
	// (the previous tag its next value carries; the client thread's alone);
	// held holds, per writer, the values waiting for their predecessor (nil
	// until one waits).
	ownTag core.Tag
	held   map[int][]heldValue

	// Durability and garbage-collection state. wal is the durability sink
	// (nil: the node is crash-stop). Only own values force a sync (before
	// they are disseminated); a frontier checkpoint or a prune is appended
	// and its act — the vouch, the PruneTo — parked until a later sync has
	// covered the record (releaseDurable). Without a WAL a checkpoint is
	// permanent as soon as it is taken, so the vouch rides the goodLA that
	// announces it and a prune runs when it is decided (maybeGC). ckpt is
	// the latest checkpoint appended and prune the floor of the latest
	// prune; ckptSeq and pruneSeq are the WAL append counts as of those
	// records while the act is parked (pruneSeq is 1 without a WAL), 0 once
	// it is done. vouched[j] is the largest checkpoint node j has vouched
	// AND this log can verify; rawVouch[j] is the largest vouch received
	// from j regardless of local verifiability (re-checked when the local
	// frontier catches up); gc enables pruning below the global minimum
	// (set for every node the engine registry builds).
	wal               *wal.Writer
	gc                bool
	ckpt, prune       core.Checkpoint
	ckptSeq, pruneSeq int64
	vouched           []core.Checkpoint
	rawVouch          []core.Checkpoint

	stats Stats

	// Operation instrumentation (see obs.go); owned by the client thread.
	op rt.OpTrace

	// OnGoodLattice, if set, observes every good lattice operation
	// completed by this node (used by invariant-checking tests and by
	// the SSO's passive view adoption).
	OnGoodLattice func(tag core.Tag, view core.View)
	// OnGoodLAView, if set, observes every good view learned from a peer
	// ("goodLA" FIFO-derived views and explicit "goodView" replies).
	OnGoodLAView func(tag core.Tag, from int, view core.View)
}

// New creates the EQ-ASO node for the given runtime. The caller must
// register it as the node's message handler.
func New(r rt.Runtime) *Node {
	n := r.N()
	nd := &Node{
		rt:       r,
		id:       r.ID(),
		n:        n,
		quorum:   n - r.F(),
		op:       rt.NewOpTrace(r),
		log:      core.NewValueLog(n, r.ID()),
		borrow:   make(map[core.Tag]map[int]core.View),
		ownGood:  make(map[core.Tag]core.View),
		pending:  make(map[int]pendingBorrow),
		lastGood: make([]core.Tag, n),
		vouched:  make([]core.Checkpoint, n),
		rawVouch: make([]core.Checkpoint, n),
	}
	nd.cs = newSections(nd)
	return nd
}

// AttachWAL makes the node durable: every value admitted to V[self] is
// appended to w (own values synced before dissemination), frontier
// checkpoints are appended and vouched to peers once durable, and — when
// gc is set — the value log is pruned below the globally-vouched
// checkpoint, each prune logged before it runs. Must be called before the
// node is installed as a message handler.
func (nd *Node) AttachWAL(w *wal.Writer, gc bool) {
	nd.wal = w
	nd.gc = gc
}

// SetFold makes the node's scans extract every writer's segment as the fold
// of its values (engine.Folder). Call it before the node is installed as a
// message handler; a recovered node replayed its WAL under a fold already
// (wal.Recover), and setting the same one again is a no-op.
func (nd *Node) SetFold(f core.Fold) error { return nd.log.SetFold(f) }

// Stats returns a copy of the node's counters.
func (nd *Node) Stats() Stats {
	var s Stats
	nd.rt.Atomic(func() {
		s = nd.stats
		if nd.wal != nil {
			c := nd.wal.Counters()
			s.WALAppends, s.WALSyncs = c.Appends, c.Syncs
		}
	})
	return s
}

// MemoryStats reports the node's state sizes: the number of values learned
// and held, and the good-view caches, which pruneBelow keeps proportional
// to in-flight activity rather than to the execution's length. The paper's
// node keeps every value, but a scan needs only each writer's segment: a
// pruning node drops the prefix every node has vouched and keeps its
// segments, so what it holds tracks the active window — until a crashed
// node's vouch stops the floor.
type MemoryStats struct {
	// Values is the size of V[id] (every value ever learned).
	Values int
	// Retained is the number of values held physically; on a pruning node
	// it tracks the active window instead of the whole history.
	Retained int
	// Pruned is the number of values garbage-collected below the
	// globally-vouched checkpoint.
	Pruned int
	// LogBytes estimates the value log's resident size.
	LogBytes int
	// Frozen is the stable-frontier prefix length: values in zero-copy,
	// immutable log positions.
	Frozen int
	// BorrowTags / OwnGoodTags count cached good views.
	BorrowTags, OwnGoodTags int
}

// Memory returns current state sizes (for tests and capacity planning).
func (nd *Node) Memory() MemoryStats {
	var m MemoryStats
	nd.rt.Atomic(func() {
		m.Values = nd.log.SelfLen()
		m.Retained = nd.log.RetainedLen()
		m.Pruned = nd.log.PrunedCount()
		m.LogBytes = nd.log.HeapBytes()
		m.Frozen = nd.log.Frontier().Count
		m.BorrowTags = len(nd.borrow)
		m.OwnGoodTags = len(nd.ownGood)
	})
	return m
}

// LogStats returns the value log's structural counters (for tests and
// benchmarks).
func (nd *Node) LogStats() core.LogStats {
	var s core.LogStats
	nd.rt.Atomic(func() { s = nd.log.Stats() })
	return s
}

// MaxTag returns the node's current maxTag (for tests and tooling).
func (nd *Node) MaxTag() core.Tag {
	var t core.Tag
	nd.rt.Atomic(func() { t = nd.maxTag })
	return t
}

// LocalView returns a snapshot of everything the node has received
// (V[id]); the SSO built on this package serves scans from it.
func (nd *Node) LocalView() core.View {
	var v core.View
	nd.rt.Atomic(func() { v = nd.log.AllView() })
	return v
}

// HandleMessage implements rt.Handler (the event handlers of Algorithm 1,
// lines 40-49). The runtime guarantees atomic execution.
func (nd *Node) HandleMessage(src int, m rt.Message) {
	switch msg := m.(type) {
	case MsgValue:
		nd.receiveValue(src, msg.Val, msg.Prev)
	case MsgReadTag:
		nd.rt.Send(src, MsgReadAck{ReqID: msg.ReqID, Tag: nd.maxTag})
	case MsgReadAck:
		if msg.ReqID == nd.call.req {
			nd.call.acks++
			if msg.Tag > nd.call.max {
				nd.call.max = msg.Tag
			}
		}
	case MsgWriteTag:
		if msg.Tag > nd.maxTag {
			nd.maxTag = msg.Tag
			nd.rt.Broadcast(MsgEchoTag{Tag: msg.Tag})
		}
		nd.rt.Send(src, MsgWriteAck{ReqID: msg.ReqID, Tag: msg.Tag})
	case MsgWriteAck:
		if msg.ReqID == nd.call.req {
			nd.call.acks++
		}
	case MsgEchoTag:
		if msg.Tag > nd.maxTag {
			nd.maxTag = msg.Tag
		}
	case MsgGoodLA:
		// By FIFO, V[src]^{≤Tag} now equals src's equivalence set.
		view := nd.log.PeerViewLE(src, msg.Tag)
		nd.addBorrow(msg.Tag, src, view)
		if nd.OnGoodLAView != nil {
			nd.OnGoodLAView(msg.Tag, src, view)
		}
		nd.servePending()
		nd.noteGood(src, msg.Tag)
		if msg.Ck.Count > 0 {
			nd.noteVouch(src, msg.Ck)
		}
	case MsgBorrowReq:
		if msg.Attempt == 0 && !nd.inSample(src, msg.Tag) {
			// Reply amplification gate: on the first attempt only f+1
			// deterministically sampled responders answer; the requester
			// escalates (attempt 1, everyone answers) if a sampled
			// responder naks.
			nd.stats.BorrowsSuppressed++
			return
		}
		nd.serveBorrow(src, msg.Tag, msg.Base)
	case MsgBorrowNak:
		nd.maybeEscalate(msg.Tag)
	case MsgGoodView:
		nd.adoptBorrowed(msg.Tag, src, msg.View.WithFold(nd.log.Fold()))
	case MsgGoodViewDelta:
		if view, ok := nd.log.ComposeAt(msg.Base, msg.Delta); ok {
			nd.adoptBorrowed(msg.Tag, src, view)
		} else {
			// Our frozen prefix changed under the in-flight borrow (a
			// straggler forced a copy-on-write) — ask for full views.
			nd.stats.BorrowDeltaRejects++
			nd.maybeEscalate(msg.Tag)
		}
	case MsgCkptVouch:
		nd.noteVouch(src, msg.Ck)
	case MsgRejoinReq:
		// src recovered with durable state through Base: that prefix
		// survived the crash, so credit src's cursor with it — this also
		// repairs goodLA FIFO reconstruction for values src received but
		// whose broadcasts were cut short pre-crash. Its tags before the
		// crash no longer bound its requests (noteGood).
		nd.noteVouch(src, msg.Base)
		nd.lastGood[src] = 0
		all := nd.log.AllView()
		if delta, ok := nd.log.DeltaAbove(all, msg.Base); ok {
			nd.stats.RejoinDeltaReplies++
			nd.rt.Send(src, MsgRejoinAck{Base: msg.Base, Vals: delta})
		} else {
			nd.stats.RejoinFullReplies++
			nd.rt.Send(src, MsgRejoinAck{Full: true, Vals: all.Standalone().Values()})
		}
	case MsgRejoinAck:
		if !msg.Full {
			// src vouched our recovered base implicitly by replying with a
			// delta above it.
			nd.log.NoteVouch(src, msg.Base)
		}
		for _, v := range msg.Vals {
			nd.addValue(src, v)
		}
	}
}

// receiveValue handles a MsgValue from src: v is admitted once the log
// holds its writer's previous value (tag prev), and held back until then.
// Channels are FIFO and every node forwards what it admits, so a value can
// only outrun its predecessor when a message was lost, and the predecessor
// still arrives by another path (a forward, or a rejoin reply): holding v
// is a delay the model allows. It keeps the log closed under each writer's
// prefix, which a fold needs and View.Covers assumes.
func (nd *Node) receiveValue(src int, v core.Value, prev core.Tag) {
	if w := v.TS.Writer; w >= 0 && w < nd.n && prev > nd.log.LastTag(w) {
		if nd.held == nil {
			nd.held = make(map[int][]heldValue)
		}
		nd.held[w] = append(nd.held[w], heldValue{src: src, val: v, prev: prev})
		nd.stats.HeldBack++
		return
	}
	nd.addValue(src, v)
}

// addValue admits a value received from src (the "value" handler, line 40
// of Algorithm 1): into the log, the active EQ wait, the WAL, and — on
// first receipt, which the log reports as newToSelf — back out to everyone
// (reliable broadcast), carrying its writer's previous tag. The writer's
// own values went out from Update. Values held back for this one follow.
func (nd *Node) addValue(src int, v core.Value) {
	last := nd.log.LastTag(v.TS.Writer)
	newToJ, newToSelf := nd.log.Add(src, v)
	if nd.wait != nil {
		nd.wait.OnAdd(src, v, newToJ, newToSelf)
	}
	if newToSelf && nd.wal != nil {
		nd.wal.AppendValue(src, v)
		nd.releaseDurable() // this append may have been the batch's last
	}
	if newToSelf && v.TS.Writer != nd.id {
		if last >= v.TS.Tag {
			// Admitted behind a later value of its writer (a rejoin reply
			// restoring a flattened prefix): look its predecessor up.
			last = nd.log.PrevTag(v.TS)
		}
		nd.rt.Broadcast(MsgValue{Val: v, Prev: last})
	}
	if len(nd.held) > 0 {
		nd.releaseHeld(v.TS.Writer)
	}
}

// releaseHeld admits, in order, the values of writer w whose predecessor
// the log now holds.
func (nd *Node) releaseHeld(w int) {
	for {
		q := nd.held[w]
		i := 0
		for i < len(q) && q[i].prev > nd.log.LastTag(w) {
			i++
		}
		if i == len(q) {
			return
		}
		h := q[i]
		if len(q) == 1 {
			delete(nd.held, w)
		} else {
			nd.held[w] = append(q[:i:i], q[i+1:]...)
		}
		nd.addValue(h.src, h.val)
	}
}

// crashStopVouch returns the vouch a good lattice operation's goodLA
// carries: the frontier it just froze when the node prunes without a WAL,
// the zero checkpoint otherwise. In the crash-stop model the vouch needs no
// sync to be permanent — a crashed node never acts again, so it can never
// hold less than it vouched. The advanced frontier may verify vouches that
// outran this log, as after a durable vouch in releaseDurable.
func (nd *Node) crashStopVouch() core.Checkpoint {
	if nd.wal != nil || !nd.gc {
		return core.Checkpoint{}
	}
	nd.recheckVouches()
	return nd.log.Frontier()
}

// vouchFrontier logs a checkpoint of the current frontier and parks the
// vouch for it. Called (atomically) after a good lattice operation advanced
// the frontier. The record forces no sync: the vouch goes out from
// releaseDurable once the record IS durable, so a peer can only GC below a
// frontier this node will still hold after any crash. A checkpoint logged
// while an older one is still parked replaces it — one vouch, for the
// latest, covers both. Without a WAL the vouch went out with the goodLA.
func (nd *Node) vouchFrontier() {
	if nd.wal == nil {
		return
	}
	ck := nd.log.Frontier()
	if ck.Count <= nd.ckpt.Count || nd.wal.AppendCheckpoint(ck) != nil {
		return
	}
	nd.ckpt, nd.ckptSeq = ck, nd.wal.Counters().Appends
	nd.releaseDurable()
}

// releaseDurable performs the parked acts whose WAL records a sync has
// covered: it is called (atomically) after every append and after the
// writer's own sync-before-disseminate, so an act leaves in the critical
// section of the sync that made it safe — the node's next update, or the
// every-batch-appends sync of a node that is only receiving. After a write
// or sync error Durable never advances and nothing is released. The node's
// own vouch is recorded via the self-delivered broadcast. Without a WAL
// every record is durable as soon as it is taken.
func (nd *Node) releaseDurable() {
	durable := int64(1)
	if nd.wal != nil {
		durable = nd.wal.Counters().Durable
	}
	if nd.pruneSeq != 0 && nd.pruneSeq <= durable && nd.wait == nil {
		// Not while an EQ wait is active (the tracker caches absolute
		// counts): the prune stays parked for the next release. PruneTo
		// re-verifies the digest and every peer cursor.
		nd.pruneSeq = 0
		if nd.log.PruneTo(nd.prune) {
			nd.stats.LogPrunes++
		}
	}
	if nd.ckptSeq != 0 && nd.ckptSeq <= durable {
		nd.ckptSeq = 0
		nd.stats.VouchesSent++
		nd.rt.Broadcast(MsgCkptVouch{Ck: nd.ckpt})
		// The frontier advanced: vouches that outran this log when they
		// arrived may verify now. Without this re-check a peer's vouch
		// received while this node lagged would stay buffered until the
		// peer's NEXT good lattice op, stalling GC indefinitely.
		nd.recheckVouches()
		nd.maybeGC()
	}
}

// noteVouch records j's durable checkpoint: the raw vouch is always
// buffered (latest per peer), and when this log vouches the same prefix
// it advances j's cursor, raises vouched[j], and garbage-collects if a
// new global floor emerged. A vouch this log cannot verify yet — the
// local frontier lags j's — stays in rawVouch and is re-examined by
// recheckVouches once the frontier advances.
func (nd *Node) noteVouch(j int, ck core.Checkpoint) {
	if ck.Count > nd.rawVouch[j].Count {
		nd.rawVouch[j] = ck
	}
	nd.log.NoteVouch(j, ck)
	if nd.log.Vouches(ck) && ck.Count > nd.vouched[j].Count {
		nd.vouched[j] = ck
	}
	nd.maybeGC()
}

// recheckVouches re-applies buffered raw vouches that were not verifiable
// when they arrived. Called after the local frontier advances.
func (nd *Node) recheckVouches() {
	for j, ck := range nd.rawVouch {
		if j == nd.id || ck.Count <= nd.vouched[j].Count {
			continue
		}
		nd.log.NoteVouch(j, ck)
		if nd.log.Vouches(ck) {
			nd.vouched[j] = ck
		}
	}
}

// maybeGC logs a prune below the smallest checkpoint every node has
// vouched and parks it; releaseDurable executes it once the record is
// durable, so replay prunes at least as far as the live node did and
// recovered digests match live peers. One prune is parked at a time: a
// higher floor is logged after it has run.
//
// Without a WAL there is no record to wait for. A floor every node vouched
// is held by every node, and in the crash-stop model none of them can lose
// it, so no node can need the dropped values again. A prune rebuilds the
// arrays it keeps, so the node waits until the floor has passed half a log
// window of values; and it prunes only between EQ waits, retrying at the
// next vouch — every goodLA carries one, the node's own included.
func (nd *Node) maybeGC() {
	if !nd.gc || nd.pruneSeq != 0 {
		return
	}
	floor := nd.vouched[0]
	for _, ck := range nd.vouched[1:] {
		if ck.Count < floor.Count {
			floor = ck
		}
	}
	if floor.Count <= nd.log.PrunedCount() || !nd.log.Vouches(floor) {
		return
	}
	switch {
	case nd.wal == nil:
		if nd.wait != nil || !nd.log.PruneWorthwhile(floor) {
			return
		}
		nd.prune, nd.pruneSeq = floor, 1
	case nd.wal.AppendPrune(floor) != nil:
		return
	default:
		nd.prune, nd.pruneSeq = floor, nd.wal.Counters().Appends
	}
	nd.releaseDurable()
}

// adoptBorrowed records a good view received from a peer and serves any
// borrowReq this node had parked (it now holds a view to answer with).
func (nd *Node) adoptBorrowed(tag core.Tag, from int, view core.View) {
	nd.addBorrow(tag, from, view)
	if nd.OnGoodLAView != nil {
		nd.OnGoodLAView(tag, from, view)
	}
	nd.servePending()
}

func (nd *Node) addBorrow(tag core.Tag, from int, view core.View) {
	byNode := nd.borrow[tag]
	if byNode == nil {
		byNode = make(map[int]core.View)
		nd.borrow[tag] = byNode
	}
	byNode[from] = view
}

// inSample reports whether this node is one of the f+1 responders sampled
// for src's borrowReq at the given tag. The sample is a deterministic
// function of (tag, src) — a rotation of the ring starting at a
// tag-and-requester-derived offset — so the requester needs no extra
// coordination and repeated borrows at growing tags spread the load.
func (nd *Node) inSample(src int, tag core.Tag) bool {
	k := nd.n - nd.quorum + 1 // f+1: at least one sampled node is correct
	h := uint64(tag)*0x9e3779b97f4a7c15 + uint64(src)*0xbf58476d1ce4e5b9
	h ^= h >> 31
	start := int(h % uint64(nd.n))
	for i, c := 0, 0; i < nd.n && c < k; i++ {
		id := (start + i) % nd.n
		if id == src {
			continue // the requester answers itself for free
		}
		if id == nd.id {
			return true
		}
		c++
	}
	return false
}

// serveBorrow answers a borrowReq: with the delta above the requester's
// advertised frontier when both sides agree on that prefix, with a full
// view otherwise, or — lacking any view with tag ≥ r — with a borrowNak
// now and a real reply later (servePending) if a view arrives.
func (nd *Node) serveBorrow(src int, r core.Tag, base core.Checkpoint) {
	if tag, view, ok := nd.bestViewAtLeast(r); ok {
		nd.sendView(src, tag, view, base)
		return
	}
	nd.pending[src] = pendingBorrow{tag: r, base: base}
	nd.rt.Send(src, MsgBorrowNak{Tag: r})
}

func (nd *Node) sendView(src int, tag core.Tag, view core.View, base core.Checkpoint) {
	if delta, ok := nd.log.DeltaAbove(view, base); ok {
		nd.stats.BorrowDeltaReplies++
		nd.rt.Send(src, MsgGoodViewDelta{Tag: tag, Base: base, Delta: delta})
		return
	}
	nd.stats.BorrowFullReplies++
	// Full views must not depend on this node's pruned-prefix summary
	// (the wire codec flattens views): materialize it first.
	nd.rt.Send(src, MsgGoodView{Tag: tag, View: view.Standalone()})
}

// servePending answers parked borrowReqs that a newly learned view can now
// satisfy. Iteration is in requester order for determinism.
func (nd *Node) servePending() {
	if len(nd.pending) == 0 {
		return
	}
	reqs := make([]int, 0, len(nd.pending))
	for src := range nd.pending {
		reqs = append(reqs, src)
	}
	sort.Ints(reqs)
	for _, src := range reqs {
		pb := nd.pending[src]
		if tag, view, ok := nd.bestViewAtLeast(pb.tag); ok {
			delete(nd.pending, src)
			nd.stats.BorrowPendingServed++
			nd.sendView(src, tag, view, pb.base)
		}
	}
}

// maybeEscalate rebroadcasts the in-flight borrow to every node, once: a
// sampled responder had nothing to offer (borrowNak) or a delta reply went
// stale. Escalation restores the pre-gating behavior, so liveness matches
// the original always-broadcast protocol.
func (nd *Node) maybeEscalate(tag core.Tag) {
	bw := nd.curBorrow
	if bw == nil || bw.escalated || tag != bw.tag {
		return
	}
	bw.escalated = true
	nd.stats.BorrowsEscalated++
	nd.rt.Broadcast(MsgBorrowReq{Tag: bw.tag, Attempt: 1, Base: bw.base})
}

// bestViewAtLeast returns the smallest-tagged good view this node knows
// with tag ≥ r. Deterministic: the node's own good view wins a tie with a
// borrowed one, and among the holders of a borrowed tag the lowest sender
// wins. One pass that allocates nothing, as the borrow wait's predicate
// must be.
func (nd *Node) bestViewAtLeast(r core.Tag) (core.Tag, core.View, bool) {
	bestTag := core.Tag(-1)
	var bestView core.View
	for tag, view := range nd.ownGood {
		if tag >= r && (bestTag < 0 || tag < bestTag) {
			bestTag, bestView = tag, view
		}
	}
	var holders map[int]core.View // the winning borrowed tag's, if one wins
	for tag, byNode := range nd.borrow {
		if tag >= r && (bestTag < 0 || tag < bestTag) {
			bestTag, holders = tag, byNode
		}
	}
	if bestTag < 0 {
		return 0, core.View{}, false
	}
	lowest := nd.n
	for j, view := range holders {
		if j < lowest {
			lowest, bestView = j, view
		}
	}
	return bestTag, bestView, true
}

// noteGood records node j's goodLA at tag and trims the good-view caches
// below the smallest tag a lookup can still ask for (DESIGN §9). A node's
// tags never decrease, so every request a peer sends after a good lattice
// operation at tag g is at a tag ≥ g, and by FIFO its earlier requests have
// arrived: answered, or parked in pending. This node's own operation asks
// at tags ≥ its latest goodLA's, and one not yet begun at tags ≥ maxTag.
// Dropping views below the smallest of these bounds changes no answer, and
// the caches of a node whose client has stopped follow its peers' progress.
func (nd *Node) noteGood(j int, tag core.Tag) {
	if tag <= nd.lastGood[j] {
		return
	}
	nd.lastGood[j] = tag
	low := nd.maxTag
	if nd.busy.Load() {
		low = nd.lastGood[nd.id]
	}
	for k, g := range nd.lastGood {
		if k != nd.id {
			low = min(low, g)
		}
	}
	for _, pb := range nd.pending {
		low = min(low, pb.tag)
	}
	if low > nd.trimmed {
		nd.trimmed = low
		nd.pruneBelow(low)
	}
}

// pruneBelow discards borrow/ownGood entries with tag < r; every future
// need of this node is for tags ≥ r (tags a node works with never
// decrease), so the memory stays proportional to in-flight activity. The
// largest view held is always retained so the node can keep answering
// peers' borrowReq messages.
func (nd *Node) pruneBelow(r core.Tag) {
	maxHeld := core.Tag(-1)
	for tag := range nd.borrow {
		if tag > maxHeld {
			maxHeld = tag
		}
	}
	for tag := range nd.ownGood {
		if tag > maxHeld {
			maxHeld = tag
		}
	}
	if maxHeld < r {
		r = maxHeld
	}
	for tag := range nd.borrow {
		if tag < r {
			delete(nd.borrow, tag)
		}
	}
	for tag := range nd.ownGood {
		if tag < r {
			delete(nd.ownGood, tag)
		}
	}
}
