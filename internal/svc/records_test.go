package svc_test

import (
	"bytes"
	"fmt"
	"testing"

	"mpsnap/internal/svc"
	"mpsnap/internal/wire"
)

// TestMergeKeysDeterministic: MergeKeys yields the sorted, deduplicated
// union regardless of segment order or per-segment key order — the
// property cut dumps rely on for byte-identical output.
func TestMergeKeysDeterministic(t *testing.T) {
	seg := func(keys ...string) []byte {
		recs := make([]svc.Record, len(keys))
		for i, k := range keys {
			recs[i] = svc.Record{K: k, V: []byte("v-" + k)}
		}
		return svc.EncodeRecords(recs)
	}
	// Same key sets, different write orders and segment orders.
	a := [][]byte{seg("zeta", "alpha", "mu"), seg("beta", "alpha"), nil}
	b := [][]byte{nil, seg("alpha", "beta"), seg("mu", "zeta", "alpha")}
	want := []string{"alpha", "beta", "mu", "zeta"}
	for _, segs := range [][][]byte{a, b} {
		got := svc.MergeKeys(segs)
		if len(got) != len(want) {
			t.Fatalf("MergeKeys = %v, want %v", got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("MergeKeys = %v, want %v", got, want)
			}
		}
	}
	if got := svc.MergeKeys(nil); len(got) != 0 {
		t.Errorf("MergeKeys(nil) = %v, want empty", got)
	}
}

// TestRecordsRoundTrip: the exported record codec round-trips, including
// the nil-vs-empty value edge the wire layer flattens.
func TestRecordsRoundTrip(t *testing.T) {
	in := []svc.Record{{K: "a", V: []byte("x")}, {K: "b", V: nil}, {K: "", V: []byte{}}}
	out := svc.DecodeRecords(svc.EncodeRecords(in))
	if len(out) != len(in) {
		t.Fatalf("decoded %d records, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i].K != in[i].K || string(out[i].V) != string(in[i].V) {
			t.Errorf("record %d = %+v, want %+v", i, out[i], in[i])
		}
	}
	if got := svc.DecodeRecords([]byte{0xff, 0x01}); got != nil {
		t.Errorf("corrupt payload decoded to %v, want nil", got)
	}
}

// TestEncodeRecordsBytesUnchanged: sizing the buffer up front changes what
// EncodeRecords allocates, never what it writes — every fixture encodes to
// the bytes the unsized field-by-field encoding produces (and the smallest
// to a literal), and a call allocates its one buffer: a shard re-encodes
// its cumulative key map on every routed batch, where growth by doubling
// allocated ≈ 2.3× the payload.
func TestEncodeRecordsBytesUnchanged(t *testing.T) {
	keyMap := make([]svc.Record, 300)
	for i := range keyMap {
		keyMap[i] = svc.Record{K: fmt.Sprintf("key-%04d", i), V: bytes.Repeat([]byte{byte(i)}, 1+i%200)}
	}
	fixtures := [][]svc.Record{
		nil,
		{{K: "a", V: []byte("x")}, {K: "b", V: nil}, {K: "", V: []byte{}}},
		{{K: "zeta", V: []byte("v-zeta")}, {K: "alpha", V: []byte("v-alpha")}, {K: "mu", V: []byte("v-mu")}},
		{{K: "big", V: make([]byte, 70_000)}},
		keyMap,
	}
	for i, recs := range fixtures {
		var want wire.Buffer
		want.PutUvarint(uint64(len(recs)))
		for _, rec := range recs {
			want.PutString(rec.K)
			want.PutBytes(rec.V)
		}
		if got := svc.EncodeRecords(recs); !bytes.Equal(got, want.Bytes()) {
			t.Errorf("fixture %d: encoded %d bytes differ from the field-by-field encoding (%d bytes)", i, len(got), want.Len())
		}
	}
	if got, want := svc.EncodeRecords(fixtures[1]), []byte{3, 1, 'a', 1, 'x', 1, 'b', 0, 0, 0}; !bytes.Equal(got, want) {
		t.Errorf("EncodeRecords = %v, want %v", got, want)
	}
	if allocs := testing.AllocsPerRun(50, func() { svc.EncodeRecords(keyMap) }); allocs != 1 {
		t.Errorf("EncodeRecords allocates %.0f times per call, want 1 (the sized buffer)", allocs)
	}
}

// BenchmarkRecordFold folds one routed write (one record) over a segment of
// 135 keys with 64-byte values — the shape of a member's segment on the
// sharded benchmark — as a scan does for every writer with new values.
func BenchmarkRecordFold(b *testing.B) {
	recs := make([]svc.Record, 135)
	for i := range recs {
		recs[i] = svc.Record{K: fmt.Sprintf("k%04d", i*7), V: bytes.Repeat([]byte{byte(i)}, 64)}
	}
	seg := svc.EncodeRecords(recs)
	for _, c := range []struct {
		name   string
		deltas [][]byte
	}{
		{"overwrite", [][]byte{svc.EncodeRecords([]svc.Record{{K: "k0350", V: bytes.Repeat([]byte("x"), 64)}})}},
		{"newkey", [][]byte{svc.EncodeRecords([]svc.Record{{K: "k9999", V: bytes.Repeat([]byte("x"), 64)}})}},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				svc.RecordFold.Fold(seg, c.deltas)
			}
		})
	}
}
