package sso

import (
	"mpsnap/internal/core"
	"mpsnap/internal/eqaso"
	"mpsnap/internal/rt"
	"mpsnap/internal/wal"
)

// AttachWAL makes the SSO's inner ASO durable (see eqaso.AttachWAL). It
// is a no-op for backends without WAL support (the Byzantine SSO). Must
// be called before the node is installed as a message handler.
func (nd *Node) AttachWAL(w *wal.Writer, gc bool) {
	if aw, ok := nd.inner.(interface {
		AttachWAL(*wal.Writer, bool)
	}); ok {
		aw.AttachWAL(w, gc)
	}
}

// Recover rebuilds the crash-tolerant SSO from a replayed WAL. The inner
// EQ-ASO node resumes from the recovered value log (see eqaso.Recover),
// and the stored view is seeded with the recovered frontier — the largest
// good view the node durably checkpointed. That alone is NOT enough for
// sequential consistency: pre-crash scans may have served from adopted
// good views larger than the last checkpoint (adoptions are not WAL-
// logged), so a post-restart scan from the bare frontier could regress
// (S3) or miss own completed updates (S2). Rejoin closes the gap — call
// it before serving any operation.
func Recover(r rt.Runtime, st *wal.State, w *wal.Writer, gc bool) *Node {
	inner := eqaso.Recover(r, st, w, gc)
	nd := &Node{rtm: r, inner: inner, op: rt.NewOpTrace(r)}
	inner.OnGoodLattice = func(tag core.Tag, view core.View) { nd.adopt(view) }
	inner.OnGoodLAView = func(tag core.Tag, from int, view core.View) { nd.adopt(view) }
	nd.stored = st.Log.ViewLE(st.Frontier.Tag)
	return nd
}

// Rejoin re-enters the protocol after Recover (see eqaso.Rejoin) and then
// refreshes the stored view with one readTag + LatticeRenewal. The
// renewal's good view supersets every good view completed before it (the
// same monotonicity that linearizes EQ-ASO scans), in particular whatever
// view the pre-crash incarnation last served a scan from — restoring the
// S2/S3 guarantees before the first post-restart operation. Call it from
// the client thread before resuming the workload.
func (nd *Node) Rejoin() {
	if rj, ok := nd.inner.(interface{ Rejoin() }); ok {
		rj.Rejoin()
	}
	if view, err := nd.inner.RefreshView(); err == nil {
		nd.rtm.Atomic(func() { nd.adopt(view) })
	}
}
