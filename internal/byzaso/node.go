// Package byzaso implements the Byzantine-tolerant atomic snapshot object
// of the paper's framework (Section V outlines it: "integrates reliable
// broadcast [18] with our framework"). The detailed pseudocode lives in the
// authors' technical report, which is not part of the paper text; this
// package is a documented reconstruction (see DESIGN.md) that preserves the
// framework's structure and is validated against the same (A1)-(A4)
// linearizability checker as the crash-tolerant algorithm. It requires
// n > 3f.
//
// Byzantine adaptations of the equivalence quorum framework:
//
//   - Values are disseminated with Bracha reliable broadcast, so a
//     Byzantine writer cannot equivocate its segment; a value is accepted
//     only if its timestamp's writer equals the RBC origin.
//   - V[j], node i's view of what j knows, is built from "have"
//     announcements that j broadcasts when it RBC-delivers a value. HAVEs
//     from j are admitted into V[j] in j's announcement (FIFO) order and
//     only once i itself has delivered the value; this keeps V_i[j] a
//     prefix of j's announcement stream, which is what makes equivalence
//     sets of any two EQ quorums comparable through their common *correct*
//     member (n > 3f makes every two (n-f)-quorums intersect in ≥ f+1
//     nodes, hence in a correct one).
//   - maxTag is corroborated: tags are RBC-announced, and a node's maxTag
//     M is the (f+1)-th largest per-origin announced tag, so f Byzantine
//     nodes cannot inflate it. Honest nodes ladder their announcements at
//     most one past their corroborated M, bounding Byzantine tag racing to
//     one step per round trip.
//   - readTag takes the (f+1)-th largest of n-f reported Ms — large enough
//     to cover every completed operation's tag (quorum intersection gives
//     f+1 reporters that acknowledged it) and small enough that at least
//     one honest node vouches for it (liveness against inflated lies).
//   - There is no view borrowing: a renewal loops lattice operations until
//     one is good. Borrowed views cannot be authenticated without
//     signatures; the loop terminates whenever tags quiesce and is exercised
//     by the same workloads as the crash algorithm.
package byzaso

import (
	"math/rand"
	"sort"

	"mpsnap/internal/core"
	"mpsnap/internal/rbc"
	"mpsnap/internal/rt"
	"mpsnap/internal/wire"
)

// MsgHave announces that the sender has RBC-delivered the value ts.
type MsgHave struct{ TS core.Timestamp }

// Kind implements rt.Message.
func (MsgHave) Kind() string { return "have" }

// MsgReadTag asks for the responder's corroborated maxTag.
type MsgReadTag struct{ ReqID int64 }

// Kind implements rt.Message.
func (MsgReadTag) Kind() string { return "byzReadTag" }

// MsgReadAck reports the responder's corroborated maxTag.
type MsgReadAck struct {
	ReqID int64
	Tag   core.Tag
}

// Kind implements rt.Message.
func (MsgReadAck) Kind() string { return "byzReadAck" }

// MsgTagQuery asks the responder to acknowledge once its corroborated
// maxTag reaches Tag.
type MsgTagQuery struct {
	ReqID int64
	Tag   core.Tag
}

// Kind implements rt.Message.
func (MsgTagQuery) Kind() string { return "tagQuery" }

// MsgTagAck acknowledges a MsgTagQuery.
type MsgTagAck struct{ ReqID int64 }

// Kind implements rt.Message.
func (MsgTagAck) Kind() string { return "tagAck" }

// Wire tags 96–100 (see DESIGN.md, wire format section).
func init() {
	wire.Register(wire.Codec{
		Tag: 96, Proto: MsgHave{},
		Encode: func(b *wire.Buffer, m rt.Message) { wire.PutTimestamp(b, m.(MsgHave).TS) },
		Decode: func(d *wire.Decoder) (rt.Message, error) { return MsgHave{TS: wire.GetTimestamp(d)}, d.Err() },
		Gen:    func(rng *rand.Rand) rt.Message { return MsgHave{TS: wire.GenTimestamp(rng)} },
	})
	wire.Register(wire.Codec{
		Tag: 97, Proto: MsgReadTag{},
		Encode: func(b *wire.Buffer, m rt.Message) { b.PutVarint(m.(MsgReadTag).ReqID) },
		Decode: func(d *wire.Decoder) (rt.Message, error) { return MsgReadTag{ReqID: d.Varint()}, d.Err() },
		Gen:    func(rng *rand.Rand) rt.Message { return MsgReadTag{ReqID: rng.Int63()} },
	})
	wire.Register(wire.Codec{
		Tag: 98, Proto: MsgReadAck{},
		Encode: func(b *wire.Buffer, m rt.Message) {
			msg := m.(MsgReadAck)
			b.PutVarint(msg.ReqID)
			wire.PutTag(b, msg.Tag)
		},
		Decode: func(d *wire.Decoder) (rt.Message, error) {
			return MsgReadAck{ReqID: d.Varint(), Tag: wire.GetTag(d)}, d.Err()
		},
		Gen: func(rng *rand.Rand) rt.Message {
			return MsgReadAck{ReqID: rng.Int63(), Tag: core.Tag(rng.Int63n(1 << 20))}
		},
	})
	wire.Register(wire.Codec{
		Tag: 99, Proto: MsgTagQuery{},
		Encode: func(b *wire.Buffer, m rt.Message) {
			msg := m.(MsgTagQuery)
			b.PutVarint(msg.ReqID)
			wire.PutTag(b, msg.Tag)
		},
		Decode: func(d *wire.Decoder) (rt.Message, error) {
			return MsgTagQuery{ReqID: d.Varint(), Tag: wire.GetTag(d)}, d.Err()
		},
		Gen: func(rng *rand.Rand) rt.Message {
			return MsgTagQuery{ReqID: rng.Int63(), Tag: core.Tag(rng.Int63n(1 << 20))}
		},
	})
	wire.Register(wire.Codec{
		Tag: 100, Proto: MsgTagAck{},
		Encode: func(b *wire.Buffer, m rt.Message) { b.PutVarint(m.(MsgTagAck).ReqID) },
		Decode: func(d *wire.Decoder) (rt.Message, error) { return MsgTagAck{ReqID: d.Varint()}, d.Err() },
		Gen:    func(rng *rand.Rand) rt.Message { return MsgTagAck{ReqID: rng.Int63()} },
	})
}

type readState struct {
	acks map[int]core.Tag
}

type pendingQuery struct {
	src   int
	reqID int64
	tag   core.Tag
}

// Stats counts a node's operations and lattice activity.
type Stats struct {
	Updates    int64
	Scans      int64
	LatticeOps int64
}

// Node is one Byzantine ASO node.
type Node struct {
	rt     rt.Runtime
	id     int
	n, f   int
	quorum int // n - f

	rbc *rbc.RBC

	log       *core.ValueLog // V[id] = delivered values; V[j] via HAVE prefixes
	haveQueue [][]core.Timestamp

	announced    []core.Tag // per-origin largest RBC-delivered tag announcement
	maxTag       core.Tag   // corroborated: (f+1)-th largest of announced
	selfGoal     core.Tag   // largest tag this node wants announced (ladder target)
	lastLaddered core.Tag   // largest tag already RBC-announced by this node

	nextReq    int64
	readAcks   map[int64]*readState
	tagAcks    map[int64]map[int]bool
	tagQueries []pendingQuery
	haveCount  map[core.Timestamp]int

	// eq is the node's one EQ tracker, re-armed by every lattice
	// operation; wait points at it while an EQ wait is active.
	eq    core.EQTracker
	wait  *core.EQTracker
	stats Stats

	// Operation instrumentation (see obs.go); owned by the client thread.
	op rt.OpTrace

	// OnGoodLattice observes good lattice operations (for tests).
	OnGoodLattice func(tag core.Tag, view core.View)
}

// New creates the Byzantine ASO node for the runtime (panics unless
// n > 3f). Register it as the node's message handler.
func New(r rt.Runtime) *Node {
	n := r.N()
	nd := &Node{
		rt:        r,
		id:        r.ID(),
		n:         n,
		f:         r.F(),
		quorum:    n - r.F(),
		op:        rt.NewOpTrace(r),
		log:       core.NewValueLog(n, r.ID()),
		haveQueue: make([][]core.Timestamp, n),
		announced: make([]core.Tag, n),
		readAcks:  make(map[int64]*readState),
		tagAcks:   make(map[int64]map[int]bool),
		haveCount: make(map[core.Timestamp]int),
	}
	nd.rbc = rbc.New(r, nd.onDeliver)
	return nd
}

// Stats returns a copy of the node's counters.
func (nd *Node) Stats() Stats {
	var s Stats
	nd.rt.Atomic(func() { s = nd.stats })
	return s
}

// HandleMessage implements rt.Handler.
func (nd *Node) HandleMessage(src int, m rt.Message) {
	if nd.rbc.Handle(src, m) {
		return
	}
	switch msg := m.(type) {
	case MsgHave:
		nd.haveQueue[src] = append(nd.haveQueue[src], msg.TS)
		nd.drainHaves(src)
	case MsgReadTag:
		nd.rt.Send(src, MsgReadAck{ReqID: msg.ReqID, Tag: nd.maxTag})
	case MsgReadAck:
		if st, ok := nd.readAcks[msg.ReqID]; ok {
			if _, dup := st.acks[src]; !dup {
				st.acks[src] = msg.Tag
			}
		}
	case MsgTagQuery:
		if nd.maxTag >= msg.Tag {
			nd.rt.Send(src, MsgTagAck{ReqID: msg.ReqID})
		} else {
			nd.tagQueries = append(nd.tagQueries, pendingQuery{src: src, reqID: msg.ReqID, tag: msg.Tag})
		}
	case MsgTagAck:
		if acks, ok := nd.tagAcks[msg.ReqID]; ok {
			acks[src] = true
		}
	}
}

// onDeliver handles RBC deliveries (runs in the handler's atomic context).
func (nd *Node) onDeliver(id rbc.ID, payload []byte) {
	kind, v, t, err := decodePayload(payload)
	if err != nil {
		return // malformed Byzantine payload: ignore
	}
	switch kind {
	case payloadValue:
		if v.TS.Writer != id.Origin || v.TS.Tag < 1 {
			return // forged writer or invalid tag: ignore
		}
		if !nd.log.AddSelf(v) {
			return
		}
		if nd.wait != nil {
			nd.wait.OnAdd(nd.id, v, true, true)
		}
		nd.bumpHave(v.TS)
		nd.rt.Broadcast(MsgHave{TS: v.TS})
		// Newly deliverable HAVEs may now be admissible.
		for j := 0; j < nd.n; j++ {
			if j != nd.id {
				nd.drainHaves(j)
			}
		}
	case payloadTag:
		if t > nd.announced[id.Origin] {
			nd.announced[id.Origin] = t
			nd.recomputeMaxTag()
		}
	}
}

// drainHaves admits src's queued HAVEs into V[src] in announcement order,
// stopping at the first value this node has not itself delivered yet.
func (nd *Node) drainHaves(src int) {
	if src == nd.id {
		// Own HAVEs are implicit: V[id] is the delivered set itself.
		nd.haveQueue[src] = nil
		return
	}
	q := nd.haveQueue[src]
	for len(q) > 0 {
		ts := q[0]
		p, ok := nd.log.Get(ts)
		if !ok {
			break
		}
		q = q[1:]
		v := core.Value{TS: ts, Payload: p}
		if newToJ, _ := nd.log.Add(src, v); newToJ {
			if nd.wait != nil {
				nd.wait.OnAdd(src, v, true, false)
			}
			nd.bumpHave(ts)
		}
	}
	nd.haveQueue[src] = q
}

// bumpHave counts distinct holders of ts for in-flight update waits.
func (nd *Node) bumpHave(ts core.Timestamp) {
	if _, tracked := nd.haveCount[ts]; tracked {
		nd.haveCount[ts]++
	}
}

// recomputeMaxTag sets maxTag to the (f+1)-th largest announced tag,
// answers pending tag queries, and advances this node's announcement
// ladder.
func (nd *Node) recomputeMaxTag() {
	tags := append([]core.Tag(nil), nd.announced...)
	sort.Slice(tags, func(i, j int) bool { return tags[i] > tags[j] })
	m := tags[nd.f]
	if m <= nd.maxTag {
		nd.ladder()
		return
	}
	nd.maxTag = m
	keep := nd.tagQueries[:0]
	for _, q := range nd.tagQueries {
		if nd.maxTag >= q.tag {
			nd.rt.Send(q.src, MsgTagAck{ReqID: q.reqID})
		} else {
			keep = append(keep, q)
		}
	}
	nd.tagQueries = keep
	nd.ladder()
}

// ladder announces the next tag toward the largest tag seen, at most one
// step beyond the corroborated maxTag. This propagates honest tags while
// limiting a Byzantine tag race to one step per announcement round.
func (nd *Node) ladder() {
	target := nd.selfGoal
	for _, a := range nd.announced {
		if a > target {
			target = a
		}
	}
	if target > nd.maxTag+1 {
		target = nd.maxTag + 1
	}
	if target > nd.announced[nd.id] && target > nd.lastLaddered {
		nd.lastLaddered = target
		nd.rbc.Broadcast(encodeTag(target))
	}
}
