package eqaso

import (
	"mpsnap/internal/rt"
	"mpsnap/internal/wal"
)

// Recover builds an EQ-ASO node from a replayed WAL instead of an empty
// log. The recovered node resumes with:
//
//   - the value log exactly as of the last synced WAL record (values,
//     frontier checkpoints, and prunes replayed in order), so its digests
//     match what live peers computed for the same prefixes;
//   - maxTag at least the largest tag it ever observed durably, so the
//     next readTag can never hand out a timestamp the node already wrote
//     (per-writer timestamps stay strictly increasing across the crash).
//
// Re-receiving pre-crash values does not re-forward history: a value is
// forwarded on first receipt only, and the replayed log (pruned prefix
// included) already answers that.
//
// The caller installs the node as the message handler (exactly as with
// New) and then calls Rejoin from the client thread.
func Recover(r rt.Runtime, st *wal.State, w *wal.Writer, gc bool) *Node {
	nd := New(r)
	nd.log = st.Log
	nd.maxTag = st.MaxTag
	if st.OwnTag > nd.maxTag {
		nd.maxTag = st.OwnTag
	}
	nd.ownTag = st.OwnTag
	// The recovered frontier is the latest durable checkpoint — one the node
	// vouched before the crash or had parked for it — so the node stands
	// behind it either way (Rejoin's MsgRejoinReq carries it to the peers).
	nd.ckpt = st.Frontier
	nd.vouched[nd.id] = st.Frontier
	nd.AttachWAL(w, gc)
	return nd
}

// Rejoin re-enters the protocol after Recover: it re-disseminates the
// retained values above the recovered frontier (their pre-crash broadcasts
// may have reached only a prefix of the nodes) and asks all peers for what
// it missed while down. Peers answer MsgRejoinReq with a delta above the
// advertised base when their log vouches it, or a full standalone view
// otherwise; the request also repairs their cursor for this node. Rejoin
// only sends — the acks are absorbed by the message handler — so the
// client thread can start operating immediately after it returns.
func (nd *Node) Rejoin() {
	var msgs []MsgValue
	var req MsgRejoinReq
	nd.rt.Atomic(func() {
		nd.stats.Rejoins++
		base := nd.log.Frontier()
		vals, ok := nd.log.DeltaAbove(nd.log.AllView(), base)
		if !ok {
			vals = nd.log.AllView().Standalone().Values()
		}
		msgs = make([]MsgValue, len(vals))
		for i, v := range vals {
			msgs[i] = MsgValue{Val: v, Prev: nd.log.PrevTag(v.TS)}
		}
		req = MsgRejoinReq{Base: base}
	})
	for _, m := range msgs {
		nd.rt.Broadcast(m)
	}
	nd.rt.Broadcast(req)
}
