package cluster

import (
	"mpsnap/internal/mux"
	"mpsnap/internal/rt"
)

// shardRuntime is a shard member's view of its shard cluster: an
// rt.Runtime restricted to the shard's member list, with shard-local node
// IDs. It sits on top of a mux channel runtime ("shard/<s>"), so the
// engine built on it sees an n-member cluster with IDs [0, n) while its
// messages actually travel between global nodes inside mux envelopes.
//
// Broadcast is realized as a loop of sends over the member list, in
// member order — exactly the equivalence rt.Runtime documents — so a
// mid-loop crash reaches a prefix of the members, preserving the paper's
// failure-chain mechanism at shard scope (a plain pass-through Broadcast
// would leak the envelope to every node of every shard), wrapping the
// message in one envelope for all of them.
type shardRuntime struct {
	*mux.Channel       // global IDs
	members      []int // members[local] = global node ID
	local        int   // this node's shard-local ID
	f            int
}

// newShardRuntime builds the member view. The caller guarantees the
// node is a member (LocalID >= 0).
func newShardRuntime(under *mux.Channel, members []int, local, f int) *shardRuntime {
	return &shardRuntime{Channel: under, members: members, local: local, f: f}
}

func (r *shardRuntime) ID() int { return r.local }
func (r *shardRuntime) N() int  { return len(r.members) }
func (r *shardRuntime) F() int  { return r.f }

func (r *shardRuntime) Send(dst int, msg rt.Message) {
	r.Channel.Send(r.members[dst], msg)
}

func (r *shardRuntime) Broadcast(msg rt.Message) {
	r.Channel.Multicast(r.members, msg)
}

// remapHandler translates inbound shard traffic from global to shard-
// local source IDs before handing it to the engine, and drops messages
// from non-members (a stale or misrouted envelope must not be attributed
// to a random local ID).
type remapHandler struct {
	members []int
	inner   rt.Handler
}

func (h remapHandler) HandleMessage(src int, msg rt.Message) {
	for l, g := range h.members {
		if g == src {
			h.inner.HandleMessage(l, msg)
			return
		}
	}
}
