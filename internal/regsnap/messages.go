package regsnap

import (
	"math/rand"

	"mpsnap/internal/rt"
	"mpsnap/internal/wire"
)

// MsgWrite replicates the writer's latest register state (its new
// sequence number and payload) to all servers.
type MsgWrite struct {
	ReqID int64
	Seq   int64
	Val   []byte
}

// Kind implements rt.Message.
func (MsgWrite) Kind() string { return "regWrite" }

// MsgWriteAck acknowledges a MsgWrite.
type MsgWriteAck struct{ ReqID int64 }

// Kind implements rt.Message.
func (MsgWriteAck) Kind() string { return "regWriteAck" }

// MsgCollect asks for the receiver's register vector and, under the
// cacheCovers rule, its committed cache.
type MsgCollect struct{ ReqID int64 }

// Kind implements rt.Message.
func (MsgCollect) Kind() string { return "regCollect" }

// MsgCollectAck returns the receiver's full register vector. Answering a
// MsgCollect under the cacheCovers rule it also carries the receiver's
// committed cache (the amortization cache); answering a MsgPush — the
// push round doubles as the next collect — or under the unanimous rule,
// Com is empty.
type MsgCollectAck struct {
	ReqID int64
	Vec   []Entry
	Com   []Entry
}

// Kind implements rt.Message.
func (MsgCollectAck) Kind() string { return "regCollectAck" }

// MsgPush pushes a slow-path scanner's merged vector to the servers; each
// receiver merges it into its registers and replies with its (now at
// least as large) full vector via MsgCollectAck. It is acr's PROPOSE and
// fastsnap's write-back.
type MsgPush struct {
	ReqID int64
	Vec   []Entry
}

// Kind implements rt.Message.
func (MsgPush) Kind() string { return "regPush" }

// MsgCommit announces a returned (unanimously quorum-held) snapshot
// vector, fire-and-forget: receivers fold it into their registers and
// their committed cache, which lets concurrent slow-path scanners finish
// by adoption and, under the cacheCovers rule, makes the next
// contention-free scan one round.
type MsgCommit struct{ Vec []Entry }

// Kind implements rt.Message.
func (MsgCommit) Kind() string { return "regCommit" }

func putVec(b *wire.Buffer, vec []Entry) {
	b.PutUvarint(uint64(len(vec)))
	for _, e := range vec {
		b.PutVarint(e.Seq)
		b.PutBytes(e.Val)
	}
}

func getVec(d *wire.Decoder) []Entry {
	// A serialized entry is at least 2 bytes (seq, val length).
	n := d.Count(2)
	if n == 0 {
		return nil
	}
	vec := make([]Entry, n)
	for i := range vec {
		vec[i] = Entry{Seq: d.Varint(), Val: d.Bytes()}
	}
	return vec
}

func genVec(rng *rand.Rand) []Entry {
	n := rng.Intn(5)
	if n == 0 {
		return nil
	}
	vec := make([]Entry, n)
	for i := range vec {
		vec[i] = Entry{Seq: rng.Int63n(1 << 30), Val: wire.GenPayload(rng)}
	}
	return vec
}

// Wire tags 128–143 (see ALGORITHMS.md, wire-tag tables). Retired, never
// to be reused: 133 (acr's MsgProposeAck, now MsgCollectAck with empty
// Com) and 144–149 (fastsnap's own copy of this message set).
func init() {
	wire.Register(wire.Codec{
		Tag: 128, Proto: MsgWrite{},
		Encode: func(b *wire.Buffer, m rt.Message) {
			msg := m.(MsgWrite)
			b.PutVarint(msg.ReqID)
			b.PutVarint(msg.Seq)
			b.PutBytes(msg.Val)
		},
		Decode: func(d *wire.Decoder) (rt.Message, error) {
			return MsgWrite{ReqID: d.Varint(), Seq: d.Varint(), Val: d.Bytes()}, d.Err()
		},
		Gen: func(rng *rand.Rand) rt.Message {
			return MsgWrite{ReqID: rng.Int63(), Seq: rng.Int63n(1 << 30), Val: wire.GenPayload(rng)}
		},
	})
	wire.Register(wire.Codec{
		Tag: 129, Proto: MsgWriteAck{},
		Encode: func(b *wire.Buffer, m rt.Message) { b.PutVarint(m.(MsgWriteAck).ReqID) },
		Decode: func(d *wire.Decoder) (rt.Message, error) { return MsgWriteAck{ReqID: d.Varint()}, d.Err() },
		Gen:    func(rng *rand.Rand) rt.Message { return MsgWriteAck{ReqID: rng.Int63()} },
	})
	wire.Register(wire.Codec{
		Tag: 130, Proto: MsgCollect{},
		Encode: func(b *wire.Buffer, m rt.Message) { b.PutVarint(m.(MsgCollect).ReqID) },
		Decode: func(d *wire.Decoder) (rt.Message, error) { return MsgCollect{ReqID: d.Varint()}, d.Err() },
		Gen:    func(rng *rand.Rand) rt.Message { return MsgCollect{ReqID: rng.Int63()} },
	})
	wire.Register(wire.Codec{
		Tag: 131, Proto: MsgCollectAck{},
		Encode: func(b *wire.Buffer, m rt.Message) {
			msg := m.(MsgCollectAck)
			b.PutVarint(msg.ReqID)
			putVec(b, msg.Vec)
			putVec(b, msg.Com)
		},
		Decode: func(d *wire.Decoder) (rt.Message, error) {
			return MsgCollectAck{ReqID: d.Varint(), Vec: getVec(d), Com: getVec(d)}, d.Err()
		},
		Gen: func(rng *rand.Rand) rt.Message {
			return MsgCollectAck{ReqID: rng.Int63(), Vec: genVec(rng), Com: genVec(rng)}
		},
	})
	wire.Register(wire.Codec{
		Tag: 132, Proto: MsgPush{},
		Encode: func(b *wire.Buffer, m rt.Message) {
			msg := m.(MsgPush)
			b.PutVarint(msg.ReqID)
			putVec(b, msg.Vec)
		},
		Decode: func(d *wire.Decoder) (rt.Message, error) {
			return MsgPush{ReqID: d.Varint(), Vec: getVec(d)}, d.Err()
		},
		Gen: func(rng *rand.Rand) rt.Message {
			return MsgPush{ReqID: rng.Int63(), Vec: genVec(rng)}
		},
	})
	wire.Register(wire.Codec{
		Tag: 134, Proto: MsgCommit{},
		Encode: func(b *wire.Buffer, m rt.Message) { putVec(b, m.(MsgCommit).Vec) },
		Decode: func(d *wire.Decoder) (rt.Message, error) {
			return MsgCommit{Vec: getVec(d)}, d.Err()
		},
		Gen: func(rng *rand.Rand) rt.Message { return MsgCommit{Vec: genVec(rng)} },
	})
}
