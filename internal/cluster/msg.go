package cluster

import (
	"math/rand"

	"mpsnap/internal/rt"
	"mpsnap/internal/wire"
)

// Routing status codes carried by response messages.
const (
	// StatusOK: the request was served.
	StatusOK byte = iota
	// StatusStaleMap is inert, kept for the frozen benchmark/ (ROADMAP
	// item 1): the shard map is fixed, so no node sends it.
	StatusStaleMap
	// StatusErr: the contact could not serve the operation — it does not
	// host the shard, the shard engine failed it, or its service queue is
	// full, draining for shutdown or dead. Clients try the next member.
	StatusErr
)

// Wire tags 112–119: the cluster routing block (see DESIGN.md §10 and the
// ALGORITHMS.md cluster table); 116–117 carried a map-fetch RPC nothing
// called and stay unassigned (never reused). All cluster messages travel
// inside mux envelopes on the "cluster" channel.
const (
	tagUpdateReq  = 112
	tagUpdateResp = 113
	tagScanReq    = 114
	tagScanResp   = 115
	tagCutReq     = 118
	tagCutResp    = 119
)

// MsgUpdateReq routes one keyed UPDATE to a member of the owning shard.
type MsgUpdateReq struct {
	Req   uint64 // caller-local request ID, echoed by the response
	Shard int    // the key's owning shard
	Key   string
	Val   []byte
}

// Kind implements rt.Message.
func (MsgUpdateReq) Kind() string { return "cl.updateReq" }

// MsgUpdateResp answers an MsgUpdateReq.
type MsgUpdateResp struct {
	Req    uint64
	Status byte
}

// Kind implements rt.Message.
func (MsgUpdateResp) Kind() string { return "cl.updateResp" }

// MsgScanReq routes one keyed SCAN to a member of the owning shard.
type MsgScanReq struct {
	Req   uint64
	Shard int
	Key   string
}

// Kind implements rt.Message.
func (MsgScanReq) Kind() string { return "cl.scanReq" }

// MsgScanResp answers an MsgScanReq with the key's per-member value
// vector from one linearizable shard snapshot (nil = that member's
// segment never wrote the key).
type MsgScanResp struct {
	Req    uint64
	Status byte
	Vals   [][]byte
}

// Kind implements rt.Message.
func (MsgScanResp) Kind() string { return "cl.scanResp" }

// MsgCutReq asks a shard member for the shard's contribution to a
// coordinated cut: a full shard snapshot linearized at-or-after Frontier
// (guaranteed by causality — the scan starts after this message arrives,
// which is after the coordinator recorded Frontier).
type MsgCutReq struct {
	Req      uint64
	Shard    int
	Frontier rt.Ticks
}

// Kind implements rt.Message.
func (MsgCutReq) Kind() string { return "cl.cutReq" }

// MsgCutResp is one shard's cut contribution: the shard snapshot (one
// segment per shard member, nil = ⊥) plus the scan's local interval and
// the number of updates still in flight (admitted but uncommitted) at the
// contact when the scan was issued.
type MsgCutResp struct {
	Req       uint64
	Status    byte
	Shard     int
	Frontier  rt.Ticks
	ScanStart rt.Ticks
	ScanEnd   rt.Ticks
	Pending   int
	Segments  [][]byte
}

// Kind implements rt.Message.
func (MsgCutResp) Kind() string { return "cl.cutResp" }

// encodeSegs writes a per-member payload vector, preserving nil (⊥) vs
// present via an explicit flag (a present-but-empty payload stays
// distinguishable from ⊥).
func encodeSegs(b *wire.Buffer, segs [][]byte) {
	b.PutUvarint(uint64(len(segs)))
	for _, seg := range segs {
		b.PutBool(seg != nil)
		if seg != nil {
			b.PutBytes(seg)
		}
	}
}

func decodeSegs(d *wire.Decoder) [][]byte {
	n := d.Count(1)
	out := make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		if d.Bool() {
			seg := d.Bytes()
			if seg == nil {
				seg = []byte{}
			}
			out = append(out, seg)
		} else {
			out = append(out, nil)
		}
	}
	if d.Err() != nil {
		return nil
	}
	return out
}

func genSegs(rng *rand.Rand) [][]byte {
	n := rng.Intn(4)
	if n == 0 {
		return nil
	}
	out := make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		if rng.Intn(3) == 0 {
			out = append(out, nil)
			continue
		}
		seg := make([]byte, rng.Intn(12))
		rng.Read(seg)
		out = append(out, seg)
	}
	return out
}

func init() {
	wire.Register(wire.Codec{
		Tag: tagUpdateReq, Proto: MsgUpdateReq{},
		Encode: func(b *wire.Buffer, m rt.Message) {
			v := m.(MsgUpdateReq)
			b.PutUvarint(v.Req)
			b.PutInt(v.Shard)
			b.PutString(v.Key)
			b.PutBytes(v.Val)
		},
		Decode: func(d *wire.Decoder) (rt.Message, error) {
			v := MsgUpdateReq{Req: d.Uvarint(), Shard: d.Int(), Key: d.String(), Val: d.Bytes()}
			return v, d.Err()
		},
		Gen: func(rng *rand.Rand) rt.Message {
			val := make([]byte, rng.Intn(16))
			rng.Read(val)
			return MsgUpdateReq{Req: rng.Uint64() >> 1, Shard: rng.Intn(8), Key: genKey(rng), Val: val}
		},
	})
	wire.Register(wire.Codec{
		Tag: tagUpdateResp, Proto: MsgUpdateResp{},
		Encode: func(b *wire.Buffer, m rt.Message) {
			v := m.(MsgUpdateResp)
			b.PutUvarint(v.Req)
			b.PutByte(v.Status)
		},
		Decode: func(d *wire.Decoder) (rt.Message, error) {
			v := MsgUpdateResp{Req: d.Uvarint(), Status: d.Byte()}
			return v, d.Err()
		},
		Gen: func(rng *rand.Rand) rt.Message {
			return MsgUpdateResp{Req: rng.Uint64() >> 1, Status: byte(rng.Intn(3))}
		},
	})
	wire.Register(wire.Codec{
		Tag: tagScanReq, Proto: MsgScanReq{},
		Encode: func(b *wire.Buffer, m rt.Message) {
			v := m.(MsgScanReq)
			b.PutUvarint(v.Req)
			b.PutInt(v.Shard)
			b.PutString(v.Key)
		},
		Decode: func(d *wire.Decoder) (rt.Message, error) {
			v := MsgScanReq{Req: d.Uvarint(), Shard: d.Int(), Key: d.String()}
			return v, d.Err()
		},
		Gen: func(rng *rand.Rand) rt.Message {
			return MsgScanReq{Req: rng.Uint64() >> 1, Shard: rng.Intn(8), Key: genKey(rng)}
		},
	})
	wire.Register(wire.Codec{
		Tag: tagScanResp, Proto: MsgScanResp{},
		Encode: func(b *wire.Buffer, m rt.Message) {
			v := m.(MsgScanResp)
			b.PutUvarint(v.Req)
			b.PutByte(v.Status)
			encodeSegs(b, v.Vals)
		},
		Decode: func(d *wire.Decoder) (rt.Message, error) {
			v := MsgScanResp{Req: d.Uvarint(), Status: d.Byte(), Vals: decodeSegs(d)}
			return v, d.Err()
		},
		Gen: func(rng *rand.Rand) rt.Message {
			return MsgScanResp{Req: rng.Uint64() >> 1, Status: byte(rng.Intn(3)), Vals: genSegs(rng)}
		},
	})
	wire.Register(wire.Codec{
		Tag: tagCutReq, Proto: MsgCutReq{},
		Encode: func(b *wire.Buffer, m rt.Message) {
			v := m.(MsgCutReq)
			b.PutUvarint(v.Req)
			b.PutInt(v.Shard)
			b.PutVarint(int64(v.Frontier))
		},
		Decode: func(d *wire.Decoder) (rt.Message, error) {
			v := MsgCutReq{Req: d.Uvarint(), Shard: d.Int(), Frontier: rt.Ticks(d.Varint())}
			return v, d.Err()
		},
		Gen: func(rng *rand.Rand) rt.Message {
			return MsgCutReq{Req: rng.Uint64() >> 1, Shard: rng.Intn(8), Frontier: rt.Ticks(rng.Int63n(1 << 30))}
		},
	})
	wire.Register(wire.Codec{
		Tag: tagCutResp, Proto: MsgCutResp{},
		Encode: func(b *wire.Buffer, m rt.Message) {
			v := m.(MsgCutResp)
			b.PutUvarint(v.Req)
			b.PutByte(v.Status)
			b.PutInt(v.Shard)
			b.PutVarint(int64(v.Frontier))
			b.PutVarint(int64(v.ScanStart))
			b.PutVarint(int64(v.ScanEnd))
			b.PutInt(v.Pending)
			encodeSegs(b, v.Segments)
		},
		Decode: func(d *wire.Decoder) (rt.Message, error) {
			v := MsgCutResp{
				Req: d.Uvarint(), Status: d.Byte(), Shard: d.Int(),
				Frontier: rt.Ticks(d.Varint()), ScanStart: rt.Ticks(d.Varint()), ScanEnd: rt.Ticks(d.Varint()),
				Pending: d.Int(), Segments: decodeSegs(d),
			}
			return v, d.Err()
		},
		Gen: func(rng *rand.Rand) rt.Message {
			t := rt.Ticks(rng.Int63n(1 << 30))
			return MsgCutResp{
				Req: rng.Uint64() >> 1, Status: byte(rng.Intn(3)), Shard: rng.Intn(8),
				Frontier: t, ScanStart: t + rt.Ticks(rng.Intn(1000)), ScanEnd: t + rt.Ticks(1000+rng.Intn(1000)),
				Pending: rng.Intn(8), Segments: genSegs(rng),
			}
		},
	})
}

func genKey(rng *rand.Rand) string {
	return "w" + string(rune('0'+rng.Intn(10))) + "/k" + string(rune('0'+rng.Intn(8)))
}
