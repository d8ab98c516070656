package eqaso

import (
	"mpsnap/internal/core"
	"mpsnap/internal/rt"
)

// sections are the critical sections and wait predicates of the client
// thread's operations, bound once per node in New so that an operation's
// steps allocate no closures. Each reads its inputs from the node's call
// and step and leaves its results there.
type sections struct {
	startRead, endRead     func()
	startWrite, endCall    func()
	acked                  func() bool
	armEQ, decideEQ        func()
	eqHolds                func() bool
	countOp, stamp         func()
	countDirect, readMax   func()
	startBorrow, endBorrow func()
	borrowReady            func() bool
}

func newSections(nd *Node) sections {
	return sections{
		startRead: nd.startRead, endRead: nd.endRead,
		startWrite: nd.startWrite, endCall: nd.endCall,
		acked: nd.acked,
		armEQ: nd.armEQ, decideEQ: nd.decideEQ,
		eqHolds: nd.eq.Satisfied,
		countOp: nd.countOp, stamp: nd.stamp,
		countDirect: nd.countDirect, readMax: nd.readMax,
		startBorrow: nd.startBorrow, endBorrow: nd.endBorrow,
		borrowReady: nd.borrowReady,
	}
}

// begin marks an operation in flight. The paper's node has one sequential
// client thread (Section II-A), and the state of its one operation — the
// quorum call, the EQ wait, the borrow — is node state, so a second
// operation started while one is in flight is a caller's bug.
func (nd *Node) begin() {
	if !nd.busy.CompareAndSwap(false, true) {
		panic("eqaso: an operation started while another is in flight on this node; " +
			"a node has one sequential client thread (Section II-A of the paper), " +
			"so serialize its operations (internal/svc does)")
	}
}

// end closes the operation begin opened: nothing of it stays reachable.
func (nd *Node) end() {
	nd.step = step{}
	nd.busy.Store(false)
}

// readTag implements readTag() (lines 35-37): read the largest maxTag from
// at least n-f nodes.
func (nd *Node) readTag() (core.Tag, error) {
	nd.op.Phase("readTag")
	nd.rt.Atomic(nd.cs.startRead)
	nd.rt.Broadcast(MsgReadTag{ReqID: nd.nextReq})
	if err := nd.rt.WaitUntilThen("readTag quorum", nd.cs.acked, nd.cs.endRead); err != nil {
		return 0, err
	}
	return nd.step.r, nil
}

// startRead opens a readTag call. Its maximum is seeded with the local
// maxTag: the quorum maximum can only raise it, and a node recovering from
// its WAL must never pick a timestamp at or below one it already wrote
// durably.
func (nd *Node) startRead() {
	nd.nextReq++
	nd.call = call{req: nd.nextReq, max: nd.maxTag}
}

// endRead closes a readTag call with its result in step.r.
func (nd *Node) endRead() {
	nd.step.r = nd.call.max
	nd.endCall()
}

// writeTag implements writeTag(tag) (lines 38-39): write the tag to at
// least n-f nodes. It opens every lattice operation, so the operation is
// counted in its critical section.
func (nd *Node) writeTag(tag core.Tag) error {
	nd.op.Phase("writeTag")
	nd.rt.Atomic(nd.cs.startWrite)
	nd.rt.Broadcast(MsgWriteTag{ReqID: nd.nextReq, Tag: tag})
	return nd.rt.WaitUntilThen("writeTag quorum", nd.cs.acked, nd.cs.endCall)
}

func (nd *Node) startWrite() {
	nd.stats.LatticeOps++
	nd.nextReq++
	nd.call = call{req: nd.nextReq}
}

// acked is a quorum call's wait predicate.
func (nd *Node) acked() bool { return nd.call.acks >= nd.quorum }

// endCall closes the quorum call: its later acks are ignored.
func (nd *Node) endCall() { nd.call.req = 0 }

// lattice implements Lattice(r) (lines 14-21): write the tag, wait for the
// equivalence quorum predicate EQ(V^{≤r}, i), and atomically decide whether
// the operation is good (maxTag ≤ r).
func (nd *Node) lattice(r core.Tag) (good bool, view core.View, err error) {
	if err := nd.writeTag(r); err != nil {
		return false, core.View{}, err
	}
	nd.step.r = r
	nd.rt.Atomic(nd.cs.armEQ)
	nd.op.Phase("eqWait")
	err = nd.rt.WaitUntilThen("EQ predicate", nd.cs.eqHolds, nd.cs.decideEQ)
	good, view = nd.step.good, nd.step.view
	nd.step.good, nd.step.view = false, core.View{}
	if err != nil {
		return false, core.View{}, err
	}
	if good {
		nd.op.Phase("eqGood")
	} else {
		nd.op.Phase("eqNotGood")
	}
	return good, view, nil
}

// armEQ re-arms the node's EQ tracker for EQ(V^{≤r}, self), r = step.r.
func (nd *Node) armEQ() {
	// This node will never need a view with tag < r again (its tags are
	// nondecreasing), so keep the good-view caches bounded by in-flight
	// activity.
	nd.pruneBelow(nd.step.r)
	nd.eq.ResetFromLog(nd.log, nd.step.r, nd.quorum)
	nd.wait = &nd.eq
}

// decideEQ is lines 16-21, executed atomically once the EQ predicate
// holds: the operation is good when maxTag ≤ r, and its view goes to
// step.view.
func (nd *Node) decideEQ() {
	nd.wait = nil
	r := nd.step.r
	if nd.maxTag > r {
		return
	}
	nd.step.good = true
	// The prefix ≤ r is an equivalence set held by n−f nodes: freeze it
	// first, so the view below is a zero-copy alias of the frozen log.
	nd.log.AdvanceFrontier(r)
	view := nd.log.ViewLE(r)
	nd.step.view = view
	nd.ownGood[r] = view
	if nd.OnGoodLattice != nil {
		nd.OnGoodLattice(r, view)
	}
	nd.rt.Broadcast(MsgGoodLA{Tag: r, Ck: nd.crashStopVouch()})
	nd.vouchFrontier()
	nd.servePending()
}

// latticeRenewal implements LatticeRenewal(r) (lines 22-30): at most three
// lattice operations; a good one yields a direct view, otherwise the node
// borrows an indirect view from a peer's good lattice operation.
func (nd *Node) latticeRenewal(r core.Tag) (core.View, error) {
	for phase := 1; phase <= 3; phase++ {
		nd.op.Phase(renewalPhases[phase-1])
		good, view, err := nd.lattice(r)
		if err != nil {
			return core.View{}, err
		}
		if good {
			nd.rt.Atomic(nd.cs.countDirect)
			return view, nil // direct view
		}
		if phase == 3 {
			break
		}
		nd.rt.Atomic(nd.cs.readMax)
		r = nd.step.r
	}
	// Borrow an indirect view for tag ≥ r (see the package comment for
	// why ≥ rather than = preserves correctness and improves liveness).
	// The request advertises the stable frontier so holders can reply
	// with a delta, and is answered by a sampled subset of nodes first
	// (escalated to everyone on a borrowNak — see maybeEscalate).
	nd.op.Phase("borrow")
	nd.step.r = r
	nd.rt.Atomic(nd.cs.startBorrow)
	nd.rt.Broadcast(MsgBorrowReq{Tag: r, Attempt: 0, Base: nd.borrowing.base})
	err := nd.rt.WaitUntilThen("borrow goodLA view", nd.cs.borrowReady, nd.cs.endBorrow)
	view := nd.step.view
	nd.step.view = core.View{}
	return view, err
}

func (nd *Node) countDirect() { nd.stats.DirectViews++ }

// readMax copies maxTag to step.r.
func (nd *Node) readMax() { nd.step.r = nd.maxTag }

// startBorrow opens the borrow at tag step.r, advertising the frontier.
func (nd *Node) startBorrow() {
	nd.pruneBelow(nd.step.r)
	nd.borrowing = borrowWait{tag: nd.step.r, base: nd.log.Frontier()}
	nd.curBorrow = &nd.borrowing
}

// borrowReady is the borrow's wait predicate: a good view with tag ≥ the
// borrow's is known.
func (nd *Node) borrowReady() bool {
	_, _, ok := nd.bestViewAtLeast(nd.borrowing.tag)
	return ok
}

// endBorrow closes the borrow with the view it obtained in step.view.
func (nd *Node) endBorrow() {
	_, nd.step.view, _ = nd.bestViewAtLeast(nd.borrowing.tag)
	nd.curBorrow = nil
	nd.stats.IndirectViews++
}

// Update implements UPDATE(v) (lines 4-10): obtain a fresh timestamp,
// disseminate the value, run the phase-0 lattice operation, then a
// LatticeRenewal whose view is discarded.
func (nd *Node) Update(payload []byte) error {
	_, _, err := nd.UpdateWithView(payload)
	return err
}

// UpdateWithView is Update, additionally returning the view obtained by
// the operation's final LatticeRenewal and the written value's timestamp.
// EQ-ASO itself discards that view (line 9's comment); the SSO built on
// this package stores it.
func (nd *Node) UpdateWithView(payload []byte) (core.View, core.Timestamp, error) {
	view, tss, err := nd.UpdateBatchWithView([][]byte{payload})
	var ts core.Timestamp
	if len(tss) > 0 {
		ts = tss[0]
	}
	return view, ts, err
}

// UpdateBatch writes the payloads, in order, as successive values of this
// node's segment with ONE protocol update's round sequence. This is the
// amortization lever behind the paper's O(D) amortized bound: k pending
// writes share a single readTag, phase-0 lattice operation, and
// LatticeRenewal, so the whole batch costs what one UPDATE costs. The
// service layer (internal/svc) uses it to coalesce concurrent clients.
func (nd *Node) UpdateBatch(payloads [][]byte) error {
	_, _, err := nd.UpdateBatchWithView(payloads)
	return err
}

// UpdateBatchWithView is UpdateBatch, additionally returning the final
// renewal's view and the written timestamps (in payload order). With one
// payload it produces exactly the message sequence of UpdateWithView.
//
// The batch takes timestamps r+1..r+k: all values are disseminated before
// the phase-0 lattice operation, and the renewal runs at max(r+k, maxTag),
// which writeTags ≥ r+k to a quorum — so any later readTag (whose quorum
// intersects it) returns ≥ r+k and per-writer timestamps stay strictly
// increasing, exactly as in the single-value protocol.
func (nd *Node) UpdateBatchWithView(payloads [][]byte) (view core.View, tss []core.Timestamp, err error) {
	if nd.rt.Crashed() {
		return core.View{}, nil, rt.ErrCrashed
	}
	if len(payloads) == 0 {
		return core.View{}, nil, nil
	}
	nd.begin()
	defer nd.end()
	nd.op.Start("update")
	defer func() { nd.op.End(err) }()
	nd.step.payloads = payloads
	nd.rt.Atomic(nd.cs.countOp)
	r, err := nd.readTag()
	if err != nil {
		return core.View{}, nil, err
	}
	tss = make([]core.Timestamp, len(payloads))
	nd.step.r, nd.step.tss = r, tss
	prev := nd.ownTag
	nd.rt.Atomic(nd.cs.stamp)
	nd.ownTag = tss[len(tss)-1].Tag
	if err := nd.step.walErr; err != nil {
		// The batch is not durable: disseminating it would let peers act on
		// (and GC behind) values this node cannot reconstruct after a crash.
		// Writer errors latch, so every subsequent update fails here too —
		// the node is write-fenced until the operator intervenes.
		return core.View{}, nil, err
	}
	nd.op.Phase("disseminate")
	for i, payload := range payloads {
		nd.rt.Broadcast(MsgValue{Val: core.Value{TS: tss[i], Payload: payload}, Prev: prev})
		prev = tss[i].Tag
	}
	if _, _, err = nd.lattice(r); err != nil { // phase 0
		return core.View{}, tss, err
	}
	nd.rt.Atomic(nd.cs.readMax)
	view, err = nd.latticeRenewal(max(r+core.Tag(len(payloads)), nd.step.r))
	return view, tss, err
}

// countOp counts the operation starting: an update batch of
// step.payloads, or a scan when there are none.
func (nd *Node) countOp() {
	if k := len(nd.step.payloads); k > 0 {
		nd.stats.Updates += int64(k)
		nd.stats.Batches++
	} else {
		nd.stats.Scans++
	}
}

// stamp gives step.payloads the timestamps step.r+1.. in step.tss and,
// on a durable node, logs and syncs them (the sync's error to
// step.walErr).
func (nd *Node) stamp() {
	r, tss, payloads := nd.step.r, nd.step.tss, nd.step.payloads
	for i := range payloads {
		tss[i] = core.Timestamp{Tag: r + 1 + core.Tag(i), Writer: nd.id}
	}
	if nd.wal == nil {
		// The values enter the log through the self-delivered broadcast.
		return
	}
	// Durable-before-disseminate: admit the batch to V[self] and sync it
	// BEFORE any peer can observe a value, so no value a survivor holds
	// can be lost by this node's crash.
	for i := range payloads {
		v := core.Value{TS: tss[i], Payload: payloads[i]}
		if nd.log.AddSelf(v) {
			nd.wal.AppendValue(nd.id, v)
		}
	}
	// The one sync an operation waits for; checkpoint vouches and prunes
	// parked since the last one ride it.
	nd.step.walErr = nd.wal.Sync()
	nd.releaseDurable()
}

// RefreshView runs one readTag + LatticeRenewal and returns the obtained
// view (used by the SSO to catch up until its own value is visible).
func (nd *Node) RefreshView() (core.View, error) {
	nd.begin()
	defer nd.end()
	r, err := nd.readTag()
	if err != nil {
		return core.View{}, err
	}
	return nd.latticeRenewal(r)
}

// Scan implements SCAN() (lines 11-13). The returned vector has one entry
// per node; nil marks a segment never written (⊥). It delegates to
// ScanView, which holds the protocol logic.
func (nd *Node) Scan() ([][]byte, error) {
	view, err := nd.ScanView()
	if err != nil {
		return nil, err
	}
	return view.Extract(nd.n), nil
}

// ScanView is Scan but returns the underlying view (used by tests and by
// the lattice-agreement adapter).
func (nd *Node) ScanView() (view core.View, err error) {
	if nd.rt.Crashed() {
		return core.View{}, rt.ErrCrashed
	}
	nd.begin()
	defer nd.end()
	nd.op.Start("scan")
	defer func() { nd.op.End(err) }()
	nd.rt.Atomic(nd.cs.countOp)
	r, err := nd.readTag()
	if err != nil {
		return core.View{}, err
	}
	return nd.latticeRenewal(r)
}
