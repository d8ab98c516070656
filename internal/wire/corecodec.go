package wire

import (
	"math/rand"
	"sort"

	"mpsnap/internal/core"
)

// Shared field codecs for the core framework types (tags, timestamps,
// values, views) so every algorithm package encodes them identically.
// Views and value sets are encoded in their in-memory order — which the
// owning packages keep sorted by timestamp — so equal views produce equal
// bytes.

// PutTag appends a core.Tag.
func PutTag(b *Buffer, t core.Tag) { b.PutVarint(int64(t)) }

// GetTag reads a core.Tag.
func GetTag(d *Decoder) core.Tag { return core.Tag(d.Varint()) }

// PutTimestamp appends a core.Timestamp.
func PutTimestamp(b *Buffer, ts core.Timestamp) {
	PutTag(b, ts.Tag)
	b.PutInt(ts.Writer)
}

// GetTimestamp reads a core.Timestamp.
func GetTimestamp(d *Decoder) core.Timestamp {
	return core.Timestamp{Tag: GetTag(d), Writer: d.Int()}
}

// PutValue appends a core.Value.
func PutValue(b *Buffer, v core.Value) {
	PutTimestamp(b, v.TS)
	b.PutBytes(v.Payload)
}

// GetValue reads a core.Value.
func GetValue(d *Decoder) core.Value {
	return core.Value{TS: GetTimestamp(d), Payload: d.Bytes()}
}

// PutValues appends a length-prefixed value list.
func PutValues(b *Buffer, vs []core.Value) {
	b.PutUvarint(uint64(len(vs)))
	for _, v := range vs {
		PutValue(b, v)
	}
}

// GetValues reads a length-prefixed value list (nil when empty).
func GetValues(d *Decoder) []core.Value {
	// A serialized value is at least 3 bytes (tag, writer, payload len).
	n := d.Count(3)
	if n == 0 {
		return nil
	}
	vs := make([]core.Value, n)
	for i := range vs {
		vs[i] = GetValue(d)
	}
	return vs
}

// PutView appends a core.View in timestamp order (the view's two segments
// flatten to one sorted value list on the wire).
func PutView(b *Buffer, v core.View) {
	b.PutUvarint(uint64(v.Len()))
	v.Each(func(val core.Value) { PutValue(b, val) })
}

// GetView reads a core.View.
func GetView(d *Decoder) core.View { return core.ViewOf(GetValues(d)...) }

// PutCheckpoint appends a core.Checkpoint (frontier tag, prefix length,
// prefix digest).
func PutCheckpoint(b *Buffer, ck core.Checkpoint) {
	PutTag(b, ck.Tag)
	b.PutUvarint(uint64(ck.Count))
	b.PutUint64(ck.Digest)
}

// GetCheckpoint reads a core.Checkpoint.
func GetCheckpoint(d *Decoder) core.Checkpoint {
	return core.Checkpoint{Tag: GetTag(d), Count: int(d.Uvarint()), Digest: d.Uint64()}
}

// Pseudo-random generators for fuzzing and benchmarks.

// GenPayload builds a random short payload (nil ~1/4 of the time, the
// same nil/empty folding the codec performs).
func GenPayload(rng *rand.Rand) []byte {
	if rng.Intn(4) == 0 {
		return nil
	}
	p := make([]byte, 1+rng.Intn(24))
	rng.Read(p)
	return p
}

// GenTimestamp builds a random timestamp with a small writer id.
func GenTimestamp(rng *rand.Rand) core.Timestamp {
	return core.Timestamp{Tag: core.Tag(rng.Int63n(1 << 20)), Writer: rng.Intn(16)}
}

// GenValue builds a random value.
func GenValue(rng *rand.Rand) core.Value {
	return core.Value{TS: GenTimestamp(rng), Payload: GenPayload(rng)}
}

// GenValues builds a random value list (sorted by timestamp, matching
// the invariant the owning packages maintain).
func GenValues(rng *rand.Rand) []core.Value {
	n := rng.Intn(6)
	if n == 0 {
		return nil
	}
	vs := make([]core.Value, n)
	for i := range vs {
		vs[i] = GenValue(rng)
	}
	sort.SliceStable(vs, func(i, j int) bool { return vs[i].TS.Less(vs[j].TS) })
	return vs
}

// GenCheckpoint builds a random checkpoint.
func GenCheckpoint(rng *rand.Rand) core.Checkpoint {
	return core.Checkpoint{
		Tag:    core.Tag(rng.Int63n(1 << 20)),
		Count:  rng.Intn(1 << 12),
		Digest: rng.Uint64(),
	}
}

// GenView builds a random view.
func GenView(rng *rand.Rand) core.View { return core.ViewOf(GenValues(rng)...) }
