package core

import (
	"fmt"
	"runtime"
	"testing"
)

// Micro-benchmarks comparing the reference map engine (ValueSet) with the
// history-independent log engine (ValueLog) on the four hot-path
// operations of Algorithm 1: value insertion, cardinality queries,
// view materialization, and EQ-tracker setup. Run with
//
//	go test ./internal/core -bench . -benchmem   (or: make bench-core)
//
// The interesting column is allocs/op: the log engine's queries are
// allocation-free at or below the frontier regardless of history length,
// while the map engine rescans and reallocates O(H) state per view.
// BenchmarkStragglerInsert's is B/op: a below-frontier insert copies the
// recent window, the same few KB at every history length.
const (
	benchNodes = 8
	benchH     = 16384 // prefilled history length for query benchmarks
)

func benchValue(i int) Value {
	return Value{
		TS:      Timestamp{Tag: Tag(i + 1), Writer: i % benchNodes},
		Payload: []byte("payload-01234567"),
	}
}

// prefillSets builds the map engine's state after H values: every value
// is in V[src] and V[self] (the containment invariant of line 40).
func prefillSets(h int) []*ValueSet {
	V := make([]*ValueSet, benchNodes)
	for j := range V {
		V[j] = NewValueSet()
	}
	for i := 0; i < h; i++ {
		v := benchValue(i)
		V[i%benchNodes].Add(v)
		V[0].Add(v)
	}
	return V
}

// prefillLog builds the log engine's state after H values, with the
// frontier advanced over the first half (steady state: the node keeps
// performing good lattice operations as history grows).
func prefillLog(h int) *ValueLog {
	l := NewValueLog(benchNodes, 0)
	for i := 0; i < h; i++ {
		l.Add(i%benchNodes, benchValue(i))
	}
	l.AdvanceFrontier(Tag(h / 2))
	return l
}

func BenchmarkValueSetAdd(b *testing.B) {
	b.Run("map", func(b *testing.B) {
		V := make([]*ValueSet, benchNodes)
		for j := range V {
			V[j] = NewValueSet()
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			v := benchValue(i)
			V[i%benchNodes].Add(v)
			V[0].Add(v)
		}
	})
	b.Run("log", func(b *testing.B) {
		l := NewValueLog(benchNodes, 0)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			l.Add(i%benchNodes, benchValue(i))
		}
	})
}

func BenchmarkCountLE(b *testing.B) {
	b.Run("map", func(b *testing.B) {
		V := prefillSets(benchH)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			V[i%benchNodes].CountLE(Tag(i % benchH))
		}
	})
	b.Run("log", func(b *testing.B) {
		l := prefillLog(benchH)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			l.CountLE(i%benchNodes, Tag(i%benchH))
		}
	})
}

func BenchmarkViewLE(b *testing.B) {
	r := Tag(benchH / 2) // at the log's frontier: the zero-copy fast path
	b.Run("map", func(b *testing.B) {
		V := prefillSets(benchH)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			V[0].ViewLE(r)
		}
	})
	b.Run("log", func(b *testing.B) {
		l := prefillLog(benchH)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			l.ViewLE(r)
		}
	})
}

func BenchmarkEQTrackerSetup(b *testing.B) {
	r := Tag(benchH / 2)
	quorum := benchNodes - 1
	b.Run("map", func(b *testing.B) {
		V := prefillSets(benchH)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			NewEQTracker(V, 0, r, quorum)
		}
	})
	b.Run("log", func(b *testing.B) {
		l := prefillLog(benchH)
		var t EQTracker
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			t.ResetFromLog(l, r, quorum)
		}
	})
}

// stragglerDepth is how far below the end of the log the straggler of the
// test and benchmark below lands; measured stragglers are that shallow.
const stragglerDepth = 8

// prefillFrozen builds a fully frozen 3-node log of h values at the even
// tags 2..2h, every value held by every peer, so any odd tag is a
// straggler under the frontier that demotes the peers' cursors.
func prefillFrozen(h int) *ValueLog {
	l := NewValueLog(3, 0)
	for i := 1; i <= h; i++ {
		addFromPeers(l, Timestamp{Tag: Tag(2 * i), Writer: i % 3})
	}
	l.AdvanceFrontier(Tag(2 * h))
	return l
}

func addFromPeers(l *ValueLog, ts Timestamp) {
	v := Value{TS: ts, Payload: []byte("payload-01234567")}
	l.Add(1, v)
	l.Add(2, v)
}

// stragglerUnder returns the odd-tag timestamp that lands stragglerDepth
// positions below a log ending at the even tag end.
func stragglerUnder(end Tag) Timestamp {
	return Timestamp{Tag: end - 2*stragglerDepth + 1, Writer: 1}
}

// TestStragglerInsertBytesFlatInH pins the complexity of a below-frontier
// insert: what one straggler allocates does not depend on the history
// under it (it was one copy of the whole history: 2.6 MB at H = 64k).
func TestStragglerInsertBytesFlatInH(t *testing.T) {
	const limit = 32 << 10
	var first uint64
	for _, h := range []int{1 << 10, 16 << 10, 64 << 10} {
		l := prefillFrozen(h)
		view := l.AllView()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		addFromPeers(l, stragglerUnder(Tag(2*h)))
		runtime.ReadMemStats(&after)
		got := after.TotalAlloc - before.TotalAlloc
		if st := l.Stats(); st.COWInserts != 1 || l.SelfLen() != h+1 || view.Len() != h {
			t.Fatalf("H=%d: not one copy-on-write insert: %+v", h, st)
		}
		if first == 0 {
			first = got
		}
		if got > limit || got > 2*first || first > 2*got {
			t.Errorf("H=%d: straggler allocated %d B (H=1024: %d B): want within 2× of each other and under %d B",
				h, got, first, limit)
		}
	}
}

func BenchmarkStragglerInsert(b *testing.B) {
	for _, h := range []int{1 << 10, 16 << 10, 64 << 10} {
		b.Run(fmt.Sprintf("H=%d", h), func(b *testing.B) {
			l := prefillFrozen(h)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 1; i <= b.N; i++ {
				// One in-order arrival, the good operation that freezes it,
				// then the straggler.
				end := Tag(2 * (h + i))
				addFromPeers(l, Timestamp{Tag: end, Writer: i % 3})
				l.AdvanceFrontier(end)
				addFromPeers(l, stragglerUnder(end))
			}
		})
	}
}
