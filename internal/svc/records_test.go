package svc_test

import (
	"testing"

	"mpsnap/internal/svc"
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
