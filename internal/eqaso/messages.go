package eqaso

import (
	"math/rand"

	"mpsnap/internal/core"
	"mpsnap/internal/rt"
	"mpsnap/internal/wire"
)

// Message types of Algorithm 1 plus two liveness-hardening messages
// ("borrowReq"/"goodView", see the package comment in node.go).

// MsgValue carries a written or forwarded value ("value", ⟨v, ts⟩) and the
// tag of its writer's previous value (0: none). A receiver admits the value
// only after that previous value, so every log — and every view cut from
// one — holds a prefix of each writer's values.
type MsgValue struct {
	Val  core.Value
	Prev core.Tag
}

// Kind implements rt.Message.
func (MsgValue) Kind() string { return "value" }

// MsgReadTag requests the receiver's maxTag ("readTag").
type MsgReadTag struct{ ReqID int64 }

// Kind implements rt.Message.
func (MsgReadTag) Kind() string { return "readTag" }

// MsgReadAck answers a MsgReadTag with the responder's maxTag ("readAck").
type MsgReadAck struct {
	ReqID int64
	Tag   core.Tag
}

// Kind implements rt.Message.
func (MsgReadAck) Kind() string { return "readAck" }

// MsgWriteTag writes a tag to the receiver ("writeTag").
type MsgWriteTag struct {
	ReqID int64
	Tag   core.Tag
}

// Kind implements rt.Message.
func (MsgWriteTag) Kind() string { return "writeTag" }

// MsgWriteAck acknowledges a MsgWriteTag ("writeAck").
type MsgWriteAck struct {
	ReqID int64
	Tag   core.Tag
}

// Kind implements rt.Message.
func (MsgWriteAck) Kind() string { return "writeAck" }

// MsgEchoTag propagates a newly adopted maxTag ("echoTag").
type MsgEchoTag struct{ Tag core.Tag }

// Kind implements rt.Message.
func (MsgEchoTag) Kind() string { return "echoTag" }

// MsgGoodLA announces that the sender completed a good lattice operation
// with the given tag ("goodLA"); by FIFO, the receiver's V[sender]
// restricted to the tag equals the sender's equivalence set.
//
// Ck, when its Count is positive, is the sender's vouch for the frontier
// that operation froze, as MsgCkptVouch would carry it. Only a pruning node
// without a WAL sends one: in the crash-stop model a checkpoint is
// permanent the moment it is taken, since a crashed node never acts again.
type MsgGoodLA struct {
	Tag core.Tag
	Ck  core.Checkpoint
}

// Kind implements rt.Message.
func (MsgGoodLA) Kind() string { return "goodLA" }

// MsgBorrowReq asks peers for any good view with tag ≥ Tag. It is sent
// when a LatticeRenewal enters its borrow phase, so that an indirect view
// can be obtained even if the original goodLA broadcast was cut short by a
// crash. Attempt 0 is answered only by a sampled subset of responders
// (reply-amplification gating); attempt 1 — broadcast after a borrowNak —
// by everyone. Base advertises the requester's stable frontier so a
// responder holding the same prefix can reply with just the delta.
type MsgBorrowReq struct {
	Tag     core.Tag
	Attempt uint8
	Base    core.Checkpoint
}

// Kind implements rt.Message.
func (MsgBorrowReq) Kind() string { return "borrowReq" }

// MsgGoodView answers a MsgBorrowReq with an explicit full good view.
type MsgGoodView struct {
	Tag  core.Tag
	View core.View
}

// Kind implements rt.Message.
func (MsgGoodView) Kind() string { return "goodView" }

// MsgGoodViewDelta answers a MsgBorrowReq whose Base checkpoint the
// responder vouches for: the good view equals the requester's own frozen
// prefix of Base.Count values followed by Delta. Message size is bounded
// by activity above the frontier instead of the whole history.
type MsgGoodViewDelta struct {
	Tag   core.Tag
	Base  core.Checkpoint
	Delta []core.Value
}

// Kind implements rt.Message.
func (MsgGoodViewDelta) Kind() string { return "goodViewDelta" }

// MsgBorrowNak tells a borrower that a sampled responder holds no good
// view with tag ≥ Tag yet; the borrower escalates to a full broadcast and
// the responder parks the request, serving it when a view arrives.
type MsgBorrowNak struct{ Tag core.Tag }

// Kind implements rt.Message.
func (MsgBorrowNak) Kind() string { return "borrowNak" }

// MsgCkptVouch announces that the sender's durable frontier reached Ck:
// the sender holds (and has WAL-synced) exactly that prefix and will
// never retract it, even across a crash. A receiver that vouches Ck too
// advances its cursor for the sender over the prefix; once every node
// has vouched a checkpoint, the log below the minimum such checkpoint is
// garbage-collectable.
type MsgCkptVouch struct{ Ck core.Checkpoint }

// Kind implements rt.Message.
func (MsgCkptVouch) Kind() string { return "ckptVouch" }

// MsgRejoinReq announces that the sender recovered from a crash with
// durable state through Base. Receivers repair their cursor for the
// sender (it provably holds that prefix) and reply with the values they
// hold above it.
type MsgRejoinReq struct{ Base core.Checkpoint }

// Kind implements rt.Message.
func (MsgRejoinReq) Kind() string { return "rejoinReq" }

// MsgRejoinAck answers a MsgRejoinReq: when the responder vouches Base,
// Vals is just the delta above it; otherwise Full is set and Vals is the
// responder's whole (standalone) value set.
type MsgRejoinAck struct {
	Base core.Checkpoint
	Full bool
	Vals []core.Value
}

// Kind implements rt.Message.
func (MsgRejoinAck) Kind() string { return "rejoinAck" }

// Wire tags 16–29 (see DESIGN.md, wire format section).
func init() {
	wire.Register(wire.Codec{
		Tag: 16, Proto: MsgValue{},
		Encode: func(b *wire.Buffer, m rt.Message) {
			msg := m.(MsgValue)
			wire.PutValue(b, msg.Val)
			wire.PutTag(b, msg.Prev)
		},
		Decode: func(d *wire.Decoder) (rt.Message, error) {
			return MsgValue{Val: wire.GetValue(d), Prev: wire.GetTag(d)}, d.Err()
		},
		Gen: func(rng *rand.Rand) rt.Message {
			return MsgValue{Val: wire.GenValue(rng), Prev: core.Tag(rng.Int63n(1 << 20))}
		},
	})
	wire.Register(wire.Codec{
		Tag: 17, Proto: MsgReadTag{},
		Encode: func(b *wire.Buffer, m rt.Message) { b.PutVarint(m.(MsgReadTag).ReqID) },
		Decode: func(d *wire.Decoder) (rt.Message, error) { return MsgReadTag{ReqID: d.Varint()}, d.Err() },
		Gen:    func(rng *rand.Rand) rt.Message { return MsgReadTag{ReqID: rng.Int63()} },
	})
	wire.Register(wire.Codec{
		Tag: 18, Proto: MsgReadAck{},
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
		Tag: 19, Proto: MsgWriteTag{},
		Encode: func(b *wire.Buffer, m rt.Message) {
			msg := m.(MsgWriteTag)
			b.PutVarint(msg.ReqID)
			wire.PutTag(b, msg.Tag)
		},
		Decode: func(d *wire.Decoder) (rt.Message, error) {
			return MsgWriteTag{ReqID: d.Varint(), Tag: wire.GetTag(d)}, d.Err()
		},
		Gen: func(rng *rand.Rand) rt.Message {
			return MsgWriteTag{ReqID: rng.Int63(), Tag: core.Tag(rng.Int63n(1 << 20))}
		},
	})
	wire.Register(wire.Codec{
		Tag: 20, Proto: MsgWriteAck{},
		Encode: func(b *wire.Buffer, m rt.Message) {
			msg := m.(MsgWriteAck)
			b.PutVarint(msg.ReqID)
			wire.PutTag(b, msg.Tag)
		},
		Decode: func(d *wire.Decoder) (rt.Message, error) {
			return MsgWriteAck{ReqID: d.Varint(), Tag: wire.GetTag(d)}, d.Err()
		},
		Gen: func(rng *rand.Rand) rt.Message {
			return MsgWriteAck{ReqID: rng.Int63(), Tag: core.Tag(rng.Int63n(1 << 20))}
		},
	})
	wire.Register(wire.Codec{
		Tag: 21, Proto: MsgEchoTag{},
		Encode: func(b *wire.Buffer, m rt.Message) { wire.PutTag(b, m.(MsgEchoTag).Tag) },
		Decode: func(d *wire.Decoder) (rt.Message, error) { return MsgEchoTag{Tag: wire.GetTag(d)}, d.Err() },
		Gen:    func(rng *rand.Rand) rt.Message { return MsgEchoTag{Tag: core.Tag(rng.Int63n(1 << 20))} },
	})
	wire.Register(wire.Codec{
		Tag: 22, Proto: MsgGoodLA{},
		// A goodLA without a vouch costs one byte more than its tag: the
		// zero count, with the checkpoint's tag and digest left out.
		Encode: func(b *wire.Buffer, m rt.Message) {
			msg := m.(MsgGoodLA)
			wire.PutTag(b, msg.Tag)
			b.PutUvarint(uint64(msg.Ck.Count))
			if msg.Ck.Count > 0 {
				wire.PutTag(b, msg.Ck.Tag)
				b.PutUint64(msg.Ck.Digest)
			}
		},
		Decode: func(d *wire.Decoder) (rt.Message, error) {
			msg := MsgGoodLA{Tag: wire.GetTag(d)}
			if msg.Ck.Count = int(d.Uvarint()); msg.Ck.Count > 0 {
				msg.Ck.Tag, msg.Ck.Digest = wire.GetTag(d), d.Uint64()
			}
			return msg, d.Err()
		},
		Gen: func(rng *rand.Rand) rt.Message {
			msg := MsgGoodLA{Tag: core.Tag(rng.Int63n(1 << 20))}
			if rng.Intn(2) == 1 {
				msg.Ck = wire.GenCheckpoint(rng)
				msg.Ck.Count++
			}
			return msg
		},
	})
	wire.Register(wire.Codec{
		Tag: 23, Proto: MsgBorrowReq{},
		Encode: func(b *wire.Buffer, m rt.Message) {
			msg := m.(MsgBorrowReq)
			wire.PutTag(b, msg.Tag)
			b.PutByte(msg.Attempt)
			wire.PutCheckpoint(b, msg.Base)
		},
		Decode: func(d *wire.Decoder) (rt.Message, error) {
			return MsgBorrowReq{Tag: wire.GetTag(d), Attempt: d.Byte(), Base: wire.GetCheckpoint(d)}, d.Err()
		},
		Gen: func(rng *rand.Rand) rt.Message {
			return MsgBorrowReq{
				Tag:     core.Tag(rng.Int63n(1 << 20)),
				Attempt: uint8(rng.Intn(2)),
				Base:    wire.GenCheckpoint(rng),
			}
		},
	})
	wire.Register(wire.Codec{
		Tag: 24, Proto: MsgGoodView{},
		Encode: func(b *wire.Buffer, m rt.Message) {
			msg := m.(MsgGoodView)
			wire.PutTag(b, msg.Tag)
			wire.PutView(b, msg.View)
		},
		Decode: func(d *wire.Decoder) (rt.Message, error) {
			return MsgGoodView{Tag: wire.GetTag(d), View: wire.GetView(d)}, d.Err()
		},
		Gen: func(rng *rand.Rand) rt.Message {
			return MsgGoodView{Tag: core.Tag(rng.Int63n(1 << 20)), View: wire.GenView(rng)}
		},
	})
	wire.Register(wire.Codec{
		Tag: 25, Proto: MsgGoodViewDelta{},
		Encode: func(b *wire.Buffer, m rt.Message) {
			msg := m.(MsgGoodViewDelta)
			wire.PutTag(b, msg.Tag)
			wire.PutCheckpoint(b, msg.Base)
			wire.PutValues(b, msg.Delta)
		},
		Decode: func(d *wire.Decoder) (rt.Message, error) {
			return MsgGoodViewDelta{
				Tag:   wire.GetTag(d),
				Base:  wire.GetCheckpoint(d),
				Delta: wire.GetValues(d),
			}, d.Err()
		},
		Gen: func(rng *rand.Rand) rt.Message {
			return MsgGoodViewDelta{
				Tag:   core.Tag(rng.Int63n(1 << 20)),
				Base:  wire.GenCheckpoint(rng),
				Delta: wire.GenValues(rng),
			}
		},
	})
	wire.Register(wire.Codec{
		Tag: 26, Proto: MsgBorrowNak{},
		Encode: func(b *wire.Buffer, m rt.Message) { wire.PutTag(b, m.(MsgBorrowNak).Tag) },
		Decode: func(d *wire.Decoder) (rt.Message, error) { return MsgBorrowNak{Tag: wire.GetTag(d)}, d.Err() },
		Gen:    func(rng *rand.Rand) rt.Message { return MsgBorrowNak{Tag: core.Tag(rng.Int63n(1 << 20))} },
	})
	wire.Register(wire.Codec{
		Tag: 27, Proto: MsgCkptVouch{},
		Encode: func(b *wire.Buffer, m rt.Message) { wire.PutCheckpoint(b, m.(MsgCkptVouch).Ck) },
		Decode: func(d *wire.Decoder) (rt.Message, error) {
			return MsgCkptVouch{Ck: wire.GetCheckpoint(d)}, d.Err()
		},
		Gen: func(rng *rand.Rand) rt.Message { return MsgCkptVouch{Ck: wire.GenCheckpoint(rng)} },
	})
	wire.Register(wire.Codec{
		Tag: 28, Proto: MsgRejoinReq{},
		Encode: func(b *wire.Buffer, m rt.Message) { wire.PutCheckpoint(b, m.(MsgRejoinReq).Base) },
		Decode: func(d *wire.Decoder) (rt.Message, error) {
			return MsgRejoinReq{Base: wire.GetCheckpoint(d)}, d.Err()
		},
		Gen: func(rng *rand.Rand) rt.Message { return MsgRejoinReq{Base: wire.GenCheckpoint(rng)} },
	})
	wire.Register(wire.Codec{
		Tag: 29, Proto: MsgRejoinAck{},
		Encode: func(b *wire.Buffer, m rt.Message) {
			msg := m.(MsgRejoinAck)
			wire.PutCheckpoint(b, msg.Base)
			b.PutBool(msg.Full)
			wire.PutValues(b, msg.Vals)
		},
		Decode: func(d *wire.Decoder) (rt.Message, error) {
			return MsgRejoinAck{
				Base: wire.GetCheckpoint(d),
				Full: d.Bool(),
				Vals: wire.GetValues(d),
			}, d.Err()
		},
		Gen: func(rng *rand.Rand) rt.Message {
			return MsgRejoinAck{Base: wire.GenCheckpoint(rng), Full: rng.Intn(2) == 1, Vals: wire.GenValues(rng)}
		},
	})
}
