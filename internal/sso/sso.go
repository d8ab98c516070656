// Package sso implements the sequentially consistent snapshot objects
// (SSO, Definition 2) of the paper's framework: UPDATE operations run the
// same machinery as the corresponding ASO (EQ-ASO for crashes, the RBC
// variant for Byzantine faults) — so UPDATE keeps its O(√k·D) (resp.
// O(k·D)) time — while SCAN completes locally, with zero communication, by
// extracting the node's stored view ("the framework naturally supports an
// efficient SSO, which completes SCAN operations without any communication
// by returning the extracted vector from the view stored locally",
// Section V).
//
// The stored view is maintained so that sequential consistency holds:
//
//   - Only good-lattice views are ever stored (directly obtained or
//     passively adopted from peers' goodLA announcements), so all scan
//     bases are pairwise comparable (condition S1): good views are
//     comparable by Lemma 2, and adopting the larger of two comparable
//     views keeps the stored view a good view.
//   - The stored view only grows (S3): a larger comparable view is a
//     superset.
//   - An UPDATE completes only once the stored view contains the written
//     value, looping lattice renewals if needed (S2: a node's scans see
//     all of its own completed updates; they cannot see its future ones
//     because those values do not exist yet).
//
// Detailed SSO pseudocode lives in the authors' technical report, which is
// not part of the paper text; this construction is the documented
// reconstruction validated against the sequential-consistency checker.
package sso

import (
	"mpsnap/internal/core"
	"mpsnap/internal/eqaso"
	"mpsnap/internal/rt"
)

// Stats counts SSO operations.
type Stats struct {
	Updates      int64
	Scans        int64
	ExtraRenewal int64 // renewals needed beyond the update's own
}

// backend is the ASO machinery an SSO runs its updates through.
type backend interface {
	rt.Handler
	UpdateWithView(payload []byte) (core.View, core.Timestamp, error)
	RefreshView() (core.View, error)
}

// batchBackend is a backend whose updates can be batched into one round
// sequence (EQ-ASO; the Byzantine backend falls back to sequential).
type batchBackend interface {
	UpdateBatchWithView(payloads [][]byte) (core.View, []core.Timestamp, error)
}

// Node is a sequentially consistent snapshot object node.
type Node struct {
	rtm    rt.Runtime
	inner  backend
	stored core.View
	stats  Stats

	// Operation instrumentation; owned by the client thread.
	op rt.OpTrace
}

// SetObserver installs an operation observer. The SSO emits its own
// "update" and "scan" lifecycles; it deliberately does NOT install the
// observer on its inner ASO — each layer reports only its own
// operations, so an SSO update is one event, not one per inner renewal.
func (nd *Node) SetObserver(o rt.Observer) { nd.op.SetObserver(o) }

// New creates the crash-tolerant SSO (SSO-Fast-Scan in Table I) on top of
// EQ-ASO. Register the returned node as the node's message handler.
func New(r rt.Runtime) *Node {
	inner := eqaso.New(r)
	nd := &Node{rtm: r, inner: inner, op: rt.NewOpTrace(r)}
	// Passive adoption: every good view this node produces or learns
	// about refreshes the stored view (still zero extra messages).
	inner.OnGoodLattice = func(tag core.Tag, view core.View) { nd.adopt(view) }
	inner.OnGoodLAView = func(tag core.Tag, from int, view core.View) { nd.adopt(view) }
	return nd
}

// NewWithBackend builds an SSO over a custom backend (used for the
// Byzantine SSO, see NewByzantine in byz.go).
func NewWithBackend(r rt.Runtime, b backend) *Node {
	return &Node{rtm: r, inner: b, op: rt.NewOpTrace(r)}
}

// adopt replaces the stored view if the candidate is larger. Must run in
// an atomic context (it is called from handlers and from Atomic sections).
// Sizes compare logically (counting any garbage-collected prefix): after a
// GC a good view can be physically smaller yet stand for more values, and
// good views remain comparable by their logical lengths.
func (nd *Node) adopt(view core.View) {
	if view.LogicalLen() > nd.stored.LogicalLen() {
		nd.stored = view
	}
}

// HandleMessage implements rt.Handler.
func (nd *Node) HandleMessage(src int, m rt.Message) { nd.inner.HandleMessage(src, m) }

// Update writes payload to the caller's segment. It completes only once
// the node's stored view contains the written value.
func (nd *Node) Update(payload []byte) (err error) {
	if nd.rtm.Crashed() {
		return rt.ErrCrashed
	}
	nd.op.Start("update")
	defer func() { nd.op.End(err) }()
	nd.rtm.Atomic(func() { nd.stats.Updates++ })
	view, ts, err := nd.inner.UpdateWithView(payload)
	if err != nil {
		return err
	}
	for {
		var done bool
		nd.rtm.Atomic(func() {
			nd.adopt(view)
			// Covers, not Contains: with GC the written value may already
			// sit inside the stored view's pruned prefix.
			done = nd.stored.Covers(ts)
		})
		if done {
			return nil
		}
		nd.rtm.Atomic(func() { nd.stats.ExtraRenewal++ })
		view, err = nd.inner.RefreshView()
		if err != nil {
			return err
		}
	}
}

// UpdateBatch writes the payloads, in order, as successive values of the
// caller's segment, amortizing one protocol round sequence over the batch
// when the backend supports it. It completes only once the stored view
// contains the LAST written value: the self-channel is FIFO and views are
// tag-closed per writer, so a stored view containing timestamp r+k from
// this node also contains its r+1..r+k-1 — every earlier batch member is
// visible too (condition S2 for all of them at once).
func (nd *Node) UpdateBatch(payloads [][]byte) error {
	if len(payloads) == 0 {
		return nil
	}
	bb, ok := nd.inner.(batchBackend)
	if !ok {
		// Sequential fallback (Byzantine backend): still correct, no
		// amortization.
		for _, p := range payloads {
			if err := nd.Update(p); err != nil {
				return err
			}
		}
		return nil
	}
	if nd.rtm.Crashed() {
		return rt.ErrCrashed
	}
	nd.op.Start("update")
	var err error
	defer func() { nd.op.End(err) }()
	nd.rtm.Atomic(func() { nd.stats.Updates += int64(len(payloads)) })
	view, tss, err := bb.UpdateBatchWithView(payloads)
	if err != nil {
		return err
	}
	last := tss[len(tss)-1]
	for {
		var done bool
		nd.rtm.Atomic(func() {
			nd.adopt(view)
			done = nd.stored.Covers(last)
		})
		if done {
			return nil
		}
		nd.rtm.Atomic(func() { nd.stats.ExtraRenewal++ })
		view, err = nd.inner.RefreshView()
		if err != nil {
			return err
		}
	}
}

// Scan returns the snapshot extracted from the stored view. It sends no
// messages and completes in O(1) local time.
func (nd *Node) Scan() ([][]byte, error) {
	if nd.rtm.Crashed() {
		return nil, rt.ErrCrashed
	}
	nd.op.Start("scan")
	var snap [][]byte
	nd.rtm.Atomic(func() {
		nd.stats.Scans++
		snap = nd.stored.Extract(nd.rtm.N())
	})
	nd.op.End(nil)
	return snap, nil
}

// StoredView returns the current stored view (for tests and tooling).
func (nd *Node) StoredView() core.View {
	var v core.View
	nd.rtm.Atomic(func() { v = nd.stored })
	return v
}

// Stats returns a copy of the node's counters.
func (nd *Node) Stats() Stats {
	var s Stats
	nd.rtm.Atomic(func() { s = nd.stats })
	return s
}
