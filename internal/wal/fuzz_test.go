package wal

import (
	"bytes"
	"testing"

	"mpsnap/internal/core"
)

// FuzzWALReplay feeds arbitrary bytes through Replay and Recover:
// neither may panic, replay must stop at the first corrupt record, and
// the intact prefix must replay to the same state as the whole input's
// record sequence truncated at the stop point (prefix consistency).
func FuzzWALReplay(f *testing.F) {
	// Seed with a well-formed log: values, checkpoint, prune, more values.
	mf := NewMemFile()
	w := NewWriter(mf, 1)
	live := core.NewValueLog(3, 0)
	for i, tag := range []core.Tag{2, 3, 5, 7} {
		v := val(tag, i%3)
		live.Add(i%3, v)
		w.AppendValue(i%3, v)
	}
	live.AdvanceFrontier(5)
	w.AppendCheckpoint(live.Frontier())
	w.AppendPrune(live.Frontier())
	w.AppendValue(1, val(11, 1))
	seed := append([]byte(nil), mf.Bytes()...)
	f.Add(seed)
	f.Add(seed[:len(seed)-3])                            // torn tail
	dup := append(append([]byte(nil), seed...), seed...) // duplicated records
	f.Add(dup)
	flip := append([]byte(nil), seed...)
	flip[len(flip)/2] ^= 0x10 // bit flip mid-log
	f.Add(flip)
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 4, 1, 2, 3, 4, 9, 9, 9, 9})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			t.Skip("bounded input")
		}
		recs, intact, err := Replay(data)
		// Stop offset: sum of the framed sizes of the decoded records —
		// must agree with the reported intact-prefix length.
		off := 0
		for range recs {
			n := int(uint32(data[off])<<24 | uint32(data[off+1])<<16 | uint32(data[off+2])<<8 | uint32(data[off+3]))
			off += headerLen + n
		}
		if off != intact {
			t.Fatalf("intact prefix %d bytes, record sizes sum to %d", intact, off)
		}
		if err == nil && off != len(data) {
			t.Fatalf("clean replay consumed %d of %d bytes", off, len(data))
		}
		// Prefix consistency: replaying exactly the intact prefix must
		// yield the same records, cleanly.
		again, _, err2 := Replay(data[:off])
		if err2 != nil {
			t.Fatalf("intact prefix did not replay cleanly: %v", err2)
		}
		if len(again) != len(recs) {
			t.Fatalf("prefix replay: %d records, want %d", len(again), len(recs))
		}
		for i := range recs {
			if again[i].Kind != recs[i].Kind || again[i].Src != recs[i].Src ||
				again[i].Val.TS != recs[i].Val.TS || again[i].Ck != recs[i].Ck ||
				!bytes.Equal(again[i].Val.Payload, recs[i].Val.Payload) {
				t.Fatalf("prefix replay record %d differs", i)
			}
		}
		// Recover must never panic and must agree with a manual replay of
		// the decoded records.
		st := Recover(data, 3, 0, nil)
		if st.Records != len(recs) {
			t.Fatalf("Recover saw %d records, Replay %d", st.Records, len(recs))
		}
		if st.Intact != intact {
			t.Fatalf("Recover intact %d, Replay %d", st.Intact, intact)
		}
		if st.Log.SelfLen() < st.Log.PrunedCount() {
			t.Fatalf("recovered log inconsistent: selfLen %d < pruned %d", st.Log.SelfLen(), st.Log.PrunedCount())
		}
	})
}
