package svc

import (
	"bytes"
	"encoding/binary"
	"hash/maphash"
	"sort"

	"mpsnap/internal/core"
	"mpsnap/internal/wire"
)

// Record is one key write inside a keyed segment: internal/cluster keeps a
// key→value map per shard in each node's segment, and a routed write ships
// the records it changed in this format; RecordFold folds those deltas into
// the segment. The payload is encoded deterministically (records in the
// order given; callers pass a deterministic order): simulator runs must stay
// byte-identical per seed, which rules out Go's randomized map iteration
// reaching the wire.
type Record struct {
	K string
	V []byte
}

// EncodeRecords serializes a record list in the given order. The buffer is
// sized once from the records.
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

// span locates one record's key and value inside an encoded payload.
type span struct{ k0, k1, v0, v1 int }

// walkRecords calls fn with the span of every record of p, in order,
// copying nothing. A payload DecodeRecords would reject as corrupt yields no
// records: it is checked whole before fn sees any.
func walkRecords(p []byte, fn func(s span)) {
	for pass := 0; pass < 2; pass++ {
		n, off := binary.Uvarint(p)
		if off <= 0 || n > uint64((len(p)-off)/2) {
			return
		}
		for i := uint64(0); i < n; i++ {
			var s span
			var ok bool
			if s.k0, s.k1, ok = lenPrefixed(p, off); !ok {
				return
			}
			if s.v0, s.v1, ok = lenPrefixed(p, s.k1); !ok {
				return
			}
			off = s.v1
			if pass == 1 {
				fn(s)
			}
		}
	}
}

// lenPrefixed reads the length-prefixed byte string at p[off:], returning
// its bounds.
func lenPrefixed(p []byte, off int) (start, end int, ok bool) {
	n, k := binary.Uvarint(p[off:])
	if k <= 0 || n > uint64(len(p)-off-k) {
		return 0, 0, false
	}
	start = off + k
	return start, start + int(n), true
}

// RecordFold is the fold of a keyed segment: a writer's segment is every
// key it wrote, in first-write order, each with its latest value, and a
// value it writes is the records of one batch. It keeps the core.Fold
// contract — a segment is a valid delta, and folding it over a prefix of its
// own chain returns it — because a chain's keys only ever gain values and
// new keys, in first-write order. Folding costs O(|seg| + |deltas|): the
// segment's unchanged records are copied in runs, and nothing is allocated
// per record — only the result, and an index once the deltas hold many keys.
var RecordFold core.Fold = recordFold{}

type recordFold struct{}

// Fold applies the deltas' records over seg's (seg is a fold's output): a
// key seg holds keeps its place and takes its latest value, a new key goes
// to the end in first-write order. A corrupt payload counts as empty.
func (recordFold) Fold(seg []byte, deltas [][]byte) []byte {
	var small [smallIndex]deltaEntry
	ix := deltaIndex{ents: small[:0]}
	for _, d := range deltas {
		walkRecords(d, func(s span) { ix.put(d[s.k0:s.k1], d[s.v0:s.v1]) })
	}
	// Find the records seg rewrites; the rest is copied as it stands.
	type hit struct{ k1, v1, e int }
	var hitBuf [8]hit
	hits := hitBuf[:0]
	segN, end, size := 0, 0, len(seg)
	walkRecords(seg, func(s span) {
		segN++
		end = s.v1
		if e := ix.find(seg[s.k0:s.k1]); e >= 0 {
			ix.ents[e].inSeg = true
			hits = append(hits, hit{s.k1, s.v1, e})
			size += len(ix.ents[e].v) + binary.MaxVarintLen32
		}
	})
	n := segN
	for _, e := range ix.ents {
		if !e.inSeg {
			n++
			size += len(e.k) + len(e.v) + 2*binary.MaxVarintLen32
		}
	}
	out := binary.AppendUvarint(make([]byte, 0, binary.MaxVarintLen64+size), uint64(n))
	if segN > 0 {
		_, pos := binary.Uvarint(seg)
		for _, h := range hits {
			out = append(out, seg[pos:h.k1]...)
			out = appendBytes(out, ix.ents[h.e].v)
			pos = h.v1
		}
		out = append(out, seg[pos:end]...)
	}
	for _, e := range ix.ents {
		if !e.inSeg {
			out = appendBytes(appendBytes(out, e.k), e.v)
		}
	}
	return out
}

// appendBytes appends v length-prefixed, as wire.Buffer.PutBytes does.
func appendBytes(out, v []byte) []byte {
	return append(binary.AppendUvarint(out, uint64(len(v))), v...)
}

// deltaIndex holds the deltas' keys, latest value each, in first-write
// order. A few keys are searched in place; beyond that a hash index keyed
// by the key bytes' hash (no string per key) takes over.
type deltaIndex struct {
	ents []deltaEntry
	seed maphash.Seed
	head map[uint64]int // hash → last entry with it; chained through next
}

// smallIndex is how many keys a deltaIndex searches in place.
const smallIndex = 4

type deltaEntry struct {
	k, v  []byte
	next  int // previous entry with the same hash (−1: none)
	inSeg bool
}

func (ix *deltaIndex) find(k []byte) int {
	if ix.head == nil {
		for i := range ix.ents {
			if bytes.Equal(ix.ents[i].k, k) {
				return i
			}
		}
		return -1
	}
	i, ok := ix.head[maphash.Bytes(ix.seed, k)]
	for ok && i >= 0 {
		if bytes.Equal(ix.ents[i].k, k) {
			return i
		}
		i = ix.ents[i].next
	}
	return -1
}

func (ix *deltaIndex) put(k, v []byte) {
	if i := ix.find(k); i >= 0 {
		ix.ents[i].v = v
		return
	}
	ix.ents = append(ix.ents, deltaEntry{k: k, v: v, next: -1})
	switch {
	case ix.head != nil:
		ix.link(len(ix.ents) - 1)
	case len(ix.ents) > smallIndex:
		ix.seed = maphash.MakeSeed()
		ix.head = make(map[uint64]int)
		for i := range ix.ents {
			ix.link(i)
		}
	}
}

func (ix *deltaIndex) link(i int) {
	h := maphash.Bytes(ix.seed, ix.ents[i].k)
	if j, ok := ix.head[h]; ok {
		ix.ents[i].next = j
	}
	ix.head[h] = i
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
