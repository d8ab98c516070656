package svc

import (
	"encoding/binary"
	"sort"

	"mpsnap/internal/wire"
)

// Record is one key write inside a keyed segment: internal/cluster keeps a
// key→value map per shard in each node's segment and ships it in this
// format. The payload is encoded deterministically (records in the order
// given; callers pass a deterministic order): simulator runs must stay
// byte-identical per seed, which rules out Go's randomized map iteration
// reaching the wire.
type Record struct {
	K string
	V []byte
}

// EncodeRecords serializes a record list in the given order. The buffer is
// sized once from the records (a shard re-encodes its whole key map on
// every routed batch; growing by doubling allocated over twice the payload).
func EncodeRecords(recs []Record) []byte {
	size := binary.MaxVarintLen64
	for _, rec := range recs {
		size += len(rec.K) + len(rec.V) + 2*binary.MaxVarintLen32
	}
	var b wire.Buffer
	b.Grow(size)
	b.PutUvarint(uint64(len(recs)))
	for _, rec := range recs {
		b.PutString(rec.K)
		b.PutBytes(rec.V)
	}
	return b.Bytes()
}

// DecodeRecords parses a segment payload; a corrupt payload (impossible
// through EncodeRecords) is surfaced as an empty list.
func DecodeRecords(p []byte) []Record {
	if len(p) == 0 {
		return nil
	}
	d := wire.NewDecoder(p)
	n := d.Count(2)
	recs := make([]Record, 0, n)
	for i := 0; i < n; i++ {
		recs = append(recs, Record{K: d.String(), V: d.Bytes()})
	}
	if d.Err() != nil {
		return nil
	}
	return recs
}

// MergeKeys deterministically merges the key sets of several segment
// payloads: the union of every segment's record keys, sorted and
// deduplicated. Segments carry keys in each writer's first-write order, so
// a naive concatenation would depend on which writer committed first;
// sorting makes cross-segment enumeration order-stable across runs —
// cluster.GlobalScan relies on this for byte-identical cut dumps.
func MergeKeys(segments [][]byte) []string {
	var keys []string
	seen := make(map[string]bool)
	for _, seg := range segments {
		for _, rec := range DecodeRecords(seg) {
			if !seen[rec.K] {
				seen[rec.K] = true
				keys = append(keys, rec.K)
			}
		}
	}
	sort.Strings(keys)
	return keys
}
