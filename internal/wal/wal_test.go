package wal

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"testing"

	"mpsnap/internal/core"
)

func val(tag core.Tag, w int) core.Value {
	return core.Value{TS: core.Timestamp{Tag: tag, Writer: w}, Payload: []byte(fmt.Sprintf("p%d-%d", tag, w))}
}

func TestWriterReplayRoundtrip(t *testing.T) {
	f := NewMemFile()
	w := NewWriter(f, 1)
	recs := []Record{
		{Kind: RecValue, Src: 1, Val: val(3, 1)},
		{Kind: RecValue, Src: 0, Val: val(5, 0)},
		{Kind: RecCheckpoint, Ck: core.Checkpoint{Tag: 5, Count: 2, Digest: 0xfeed}},
		{Kind: RecValue, Src: 2, Val: val(9, 2)},
		{Kind: RecPrune, Ck: core.Checkpoint{Tag: 5, Count: 2, Digest: 0xfeed}},
	}
	for _, r := range recs {
		var err error
		switch r.Kind {
		case RecValue:
			err = w.AppendValue(r.Src, r.Val)
		case RecCheckpoint:
			err = w.AppendCheckpoint(r.Ck)
		case RecPrune:
			err = w.AppendPrune(r.Ck)
		}
		if err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	got, intact, err := Replay(f.Bytes())
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if intact != f.Len() {
		t.Fatalf("intact prefix %d bytes, want the whole file (%d)", intact, f.Len())
	}
	if len(got) != len(recs) {
		t.Fatalf("replayed %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i].Kind != recs[i].Kind || got[i].Src != recs[i].Src ||
			got[i].Val.TS != recs[i].Val.TS || got[i].Ck != recs[i].Ck {
			t.Fatalf("record %d: %+v != %+v", i, got[i], recs[i])
		}
	}
}

func TestWriterBatchingDurability(t *testing.T) {
	f := NewMemFile()
	w := NewWriter(f, 3)
	for i := 0; i < 4; i++ {
		if err := w.AppendValue(0, val(core.Tag(i+1), 0)); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	// Records 1..3 auto-synced at the batch boundary; record 4 is volatile.
	recs, _, err := Replay(f.Durable())
	if err != nil {
		t.Fatalf("replay durable: %v", err)
	}
	if len(recs) != 3 {
		t.Fatalf("durable records = %d, want 3", len(recs))
	}
	if err := w.Sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}
	if recs, _, _ = Replay(f.Durable()); len(recs) != 4 {
		t.Fatalf("after explicit sync durable records = %d, want 4", len(recs))
	}
}

func TestReplayTornTail(t *testing.T) {
	f := NewMemFile()
	w := NewWriter(f, 1)
	for i := 0; i < 3; i++ {
		w.AppendValue(0, val(core.Tag(i+1), 0))
	}
	whole := append([]byte(nil), f.Bytes()...)
	for cut := len(whole) - 1; cut >= 0; cut-- {
		recs, intact, err := Replay(whole[:cut])
		// Count how many full records fit in the cut prefix.
		full := 0
		off := 0
		for off < cut {
			if cut-off < headerLen {
				break
			}
			n := int(uint32(whole[off])<<24 | uint32(whole[off+1])<<16 | uint32(whole[off+2])<<8 | uint32(whole[off+3]))
			if cut-off-headerLen < n {
				break
			}
			full++
			off += headerLen + n
		}
		boundary := off == cut
		if len(recs) != full {
			t.Fatalf("cut %d: replayed %d records, want %d", cut, len(recs), full)
		}
		if intact != off {
			t.Fatalf("cut %d: intact prefix %d bytes, want %d", cut, intact, off)
		}
		if boundary && err != nil {
			t.Fatalf("cut %d at boundary: unexpected error %v", cut, err)
		}
		if !boundary && !errors.Is(err, ErrTornRecord) {
			t.Fatalf("cut %d mid-record: err = %v, want torn record", cut, err)
		}
	}
}

func TestReplayBitFlips(t *testing.T) {
	f := NewMemFile()
	w := NewWriter(f, 1)
	for i := 0; i < 3; i++ {
		w.AppendValue(1, val(core.Tag(10+i), 1))
	}
	whole := f.Bytes()
	// Locate record boundaries.
	var bounds []int
	off := 0
	for off < len(whole) {
		bounds = append(bounds, off)
		n := int(uint32(whole[off])<<24 | uint32(whole[off+1])<<16 | uint32(whole[off+2])<<8 | uint32(whole[off+3]))
		off += headerLen + n
	}
	for pos := 0; pos < len(whole); pos++ {
		mut := append([]byte(nil), whole...)
		mut[pos] ^= 0x40
		recs, _, err := Replay(mut)
		// The flip lands in some record k; records before k must survive.
		k := 0
		for k+1 < len(bounds) && bounds[k+1] <= pos {
			k++
		}
		if len(recs) < k {
			t.Fatalf("flip at %d: only %d records before corrupt record %d", pos, len(recs), k)
		}
		// A flip can accidentally produce a longer valid-looking frame that
		// swallows later records, but it must never yield MORE records than
		// the file held, and never a nil error with fewer records.
		if len(recs) > 3 {
			t.Fatalf("flip at %d: %d records from a 3-record file", pos, len(recs))
		}
		if err == nil && len(recs) != 3 {
			t.Fatalf("flip at %d: clean replay but %d records", pos, len(recs))
		}
	}
}

func TestRecoverRebuildsLog(t *testing.T) {
	const n, self = 3, 0
	live := core.NewValueLog(n, self)
	f := NewMemFile()
	w := NewWriter(f, 1)
	add := func(src int, v core.Value) {
		if _, newSelf := live.Add(src, v); newSelf {
			w.AppendValue(src, v)
		}
	}
	add(0, val(2, 0))
	add(1, val(4, 1))
	add(2, val(6, 2))
	live.AdvanceFrontier(6)
	ck := live.Frontier()
	w.AppendCheckpoint(ck)
	for j := 1; j < n; j++ {
		live.NoteVouch(j, ck)
	}
	w.AppendPrune(ck)
	if !live.PruneTo(ck) {
		t.Fatal("live prune refused")
	}
	add(1, val(9, 1))
	add(0, val(11, 0))
	w.Sync()

	st := Recover(f.Durable(), n, self, nil)
	if st.TailErr != nil {
		t.Fatalf("tail error on clean wal: %v", st.TailErr)
	}
	if st.OwnTag != 11 {
		t.Fatalf("OwnTag = %d, want 11", st.OwnTag)
	}
	if st.MaxTag != 11 {
		t.Fatalf("MaxTag = %d, want 11", st.MaxTag)
	}
	if st.Frontier != live.Frontier() {
		t.Fatalf("frontier %+v, want %+v", st.Frontier, live.Frontier())
	}
	if st.Log.SelfLen() != live.SelfLen() || st.Log.PrunedCount() != live.PrunedCount() {
		t.Fatalf("recovered sizes (%d,%d) != live (%d,%d)",
			st.Log.SelfLen(), st.Log.PrunedCount(), live.SelfLen(), live.PrunedCount())
	}
	if !st.Log.AllView().Equal(live.AllView()) {
		t.Fatalf("recovered view %v != live %v", st.Log.AllView(), live.AllView())
	}
	// Digest agreement is what lets the recovered node vouch for peers'
	// checkpoints: both must vouch each other's frontier.
	if !st.Log.Vouches(live.Frontier()) || !live.Vouches(st.Log.Frontier()) {
		t.Fatal("recovered and live logs do not cross-vouch")
	}
}

// TestRecoverTruncateAppendRecover is the second-crash scenario: a torn
// tail is truncated to State.Intact before new records are appended, so
// a second replay reaches both the pre-crash prefix and everything
// written after the first recovery. (Appending behind the garbage
// instead would make every post-recovery record unreachable.)
func TestRecoverTruncateAppendRecover(t *testing.T) {
	f := NewMemFile()
	w := NewWriter(f, 1)
	w.AppendValue(0, val(1, 0))
	w.AppendValue(1, val(2, 1))
	// Crash mid-append: the file keeps a torn half-record tail.
	torn := append(f.Bytes()[:f.Len():f.Len()], 0, 0, 0, 42, 0xde, 0xad)

	st := Recover(torn, 3, 0, nil)
	if st.Records != 2 || st.TailErr == nil {
		t.Fatalf("first recovery: records=%d err=%v", st.Records, st.TailErr)
	}
	if st.Intact >= len(torn) {
		t.Fatalf("Intact = %d, want < %d (the torn tail)", st.Intact, len(torn))
	}

	// Reopen for append the way `aso node` does: truncate to the intact
	// prefix first, then attach a writer.
	f2 := NewMemFile()
	f2.Write(torn[:st.Intact])
	f2.Sync()
	w2 := NewWriter(f2, 1)
	w2.AppendValue(0, val(5, 0))

	again := Recover(f2.Durable(), 3, 0, nil)
	if again.TailErr != nil {
		t.Fatalf("second recovery tail: %v", again.TailErr)
	}
	if again.Records != 3 || again.OwnTag != 5 {
		t.Fatalf("second recovery: records=%d ownTag=%d, want 3 records through tag 5",
			again.Records, again.OwnTag)
	}
}

func TestRecoverEmptyAndGarbage(t *testing.T) {
	if st := Recover(nil, 3, 0, nil); st.Records != 0 || st.TailErr != nil {
		t.Fatalf("empty wal: %+v", st)
	}
	st := Recover([]byte("not a wal at all, just bytes"), 3, 0, nil)
	if st.Records != 0 || st.TailErr == nil {
		t.Fatalf("garbage wal: records=%d err=%v", st.Records, st.TailErr)
	}
}

// parentFormatWAL is the byte image the writer of the commit before PR 23
// (the last one whose checkpoint and prune records forced their own sync)
// produced for recs below: value(1, 3·1), value(0, 5·0), checkpoint,
// value(2, 9·2), prune.
const parentFormatWAL = "0000000a93f28ae501010206020470332d31" +
	"0000000a12119dfe0101000a000470352d30" +
	"0000000ce54c10f701020a02000000000000feed" +
	"0000000a143bc53901010412040470392d32" +
	"0000000c723de73601030a02000000000000feed"

// TestParentFormatFixtureReplays: moving the flushes did not touch the
// record layout — a WAL written before the change replays after it, and
// the writer still produces those bytes, so an old binary replays a new WAL.
func TestParentFormatFixtureReplays(t *testing.T) {
	fixture, err := hex.DecodeString(parentFormatWAL)
	if err != nil {
		t.Fatal(err)
	}
	ck := core.Checkpoint{Tag: 5, Count: 2, Digest: 0xfeed}
	want := []Record{
		{Kind: RecValue, Src: 1, Val: val(3, 1)},
		{Kind: RecValue, Src: 0, Val: val(5, 0)},
		{Kind: RecCheckpoint, Ck: ck},
		{Kind: RecValue, Src: 2, Val: val(9, 2)},
		{Kind: RecPrune, Ck: ck},
	}
	got, intact, err := Replay(fixture)
	if err != nil || intact != len(fixture) || len(got) != len(want) {
		t.Fatalf("replayed %d records, %d of %d bytes, err %v", len(got), intact, len(fixture), err)
	}
	f := NewMemFile()
	w := NewWriter(f, 64)
	for i, r := range want {
		if got[i].Kind != r.Kind || got[i].Src != r.Src || got[i].Val.TS != r.Val.TS ||
			!bytes.Equal(got[i].Val.Payload, r.Val.Payload) || got[i].Ck != r.Ck {
			t.Fatalf("record %d: %+v, want %+v", i, got[i], r)
		}
		switch r.Kind {
		case RecValue:
			w.AppendValue(r.Src, r.Val)
		case RecCheckpoint:
			w.AppendCheckpoint(r.Ck)
		case RecPrune:
			w.AppendPrune(r.Ck)
		}
	}
	if !bytes.Equal(f.Bytes(), fixture) {
		t.Fatalf("the writer's bytes changed:\n got %x\nwant %x", f.Bytes(), fixture)
	}
}

// TestWriterCounters: Appends counts records written, Durable how many of
// them the last successful sync covered — what a caller that must act only
// after a record is durable compares against — and a failed sync latches:
// Durable never moves again.
func TestWriterCounters(t *testing.T) {
	f := NewMemFile()
	w := NewWriter(f, 3)
	ck := core.Checkpoint{Tag: 2, Count: 2, Digest: 7}
	w.AppendValue(0, val(1, 0))
	w.AppendCheckpoint(ck) // forces no sync of its own
	if c := w.Counters(); c != (Counters{Appends: 2, Bytes: int64(f.Len())}) {
		t.Fatalf("after two appends: %+v", c)
	}
	w.AppendPrune(ck) // the batch's third record: the threshold sync
	if c := w.Counters(); c != (Counters{Appends: 3, Durable: 3, Syncs: 1, Bytes: int64(f.Len())}) {
		t.Fatalf("after the batch filled: %+v", c)
	}
	if err := w.Sync(); err != nil || w.Counters().Syncs != 1 {
		t.Fatalf("a sync with nothing pending must not reach the file: err %v, %+v", err, w.Counters())
	}
	w.AppendValue(0, val(3, 0))
	f.SyncHook = func() error { return errors.New("power cut") }
	if err := w.Sync(); err == nil {
		t.Fatal("failed sync reported no error")
	}
	f.SyncHook = nil
	w.AppendValue(0, val(4, 0))
	w.Sync()
	if c := w.Counters(); c.Appends != 4 || c.Durable != 3 || c.Syncs != 1 || f.SyncedLen() == f.Len() {
		t.Fatalf("after a latched sync error: %+v, synced %d of %d bytes", c, f.SyncedLen(), f.Len())
	}
}
