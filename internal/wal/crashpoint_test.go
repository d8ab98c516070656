package wal

import (
	"encoding/binary"
	"errors"
	"testing"

	"mpsnap/internal/core"
)

// Crash-point harness: drive a live ValueLog and its WAL through a
// scripted sequence with sync-per-record, snapshotting the expected
// state after every record. Then recover from every byte prefix of the
// log and check the result matches the snapshot at however many records
// survived — i.e. every possible power-cut point recovers to a
// consistent pre-crash state.

type snap struct {
	selfLen  int
	pruned   int
	frontier core.Checkpoint
	view     core.View
}

func snapshot(l *core.ValueLog) snap {
	return snap{
		selfLen:  l.SelfLen(),
		pruned:   l.PrunedCount(),
		frontier: l.Frontier(),
		view:     l.AllView().Standalone(),
	}
}

// crashScript is one step: apply to the live log and append to the WAL.
// Each step appends at most one record.
type crashScript func(l *core.ValueLog, w *Writer)

func scriptAdd(src int, tag core.Tag, writer int) crashScript {
	return func(l *core.ValueLog, w *Writer) {
		v := val(tag, writer)
		if _, newSelf := l.Add(src, v); newSelf {
			w.AppendValue(src, v)
		}
	}
}

func scriptCheckpoint(tag core.Tag) crashScript {
	return func(l *core.ValueLog, w *Writer) {
		l.AdvanceFrontier(tag)
		w.AppendCheckpoint(l.Frontier())
	}
}

func scriptPrune() crashScript {
	return func(l *core.ValueLog, w *Writer) {
		ck := l.Frontier()
		for j := 0; j < l.N(); j++ {
			l.NoteVouch(j, ck) // self is skipped internally
		}
		w.AppendPrune(ck)
		l.PruneTo(ck)
	}
}

// recordBounds returns the byte offset after each whole record.
func recordBounds(data []byte) []int {
	var bounds []int
	off := 0
	for off+headerLen <= len(data) {
		n := int(binary.BigEndian.Uint32(data[off:]))
		if len(data)-off-headerLen < n {
			break
		}
		off += headerLen + n
		bounds = append(bounds, off)
	}
	return bounds
}

func TestCrashPointEveryPrefix(t *testing.T) {
	const n, self = 3, 1
	tables := map[string][]crashScript{
		"appends-only": {
			scriptAdd(0, 2, 0), scriptAdd(1, 3, 1), scriptAdd(2, 5, 2),
			scriptAdd(1, 7, 1), scriptAdd(0, 8, 0),
		},
		"append-checkpoint": {
			scriptAdd(0, 2, 0), scriptAdd(1, 3, 1), scriptCheckpoint(3),
			scriptAdd(2, 5, 2), scriptCheckpoint(5), scriptAdd(1, 9, 1),
		},
		"append-checkpoint-prune": {
			scriptAdd(0, 2, 0), scriptAdd(1, 3, 1), scriptAdd(2, 4, 2),
			scriptCheckpoint(4), scriptPrune(),
			scriptAdd(0, 6, 0), scriptAdd(1, 8, 1),
			scriptCheckpoint(8), scriptPrune(),
			scriptAdd(2, 9, 2),
		},
		"prune-interleaved-duplicates": {
			scriptAdd(0, 2, 0), scriptAdd(2, 2, 0), // duplicate delivery
			scriptCheckpoint(2), scriptPrune(),
			scriptAdd(1, 4, 1), scriptAdd(1, 4, 1), // duplicate own value
			scriptCheckpoint(4), scriptAdd(0, 7, 0),
		},
	}
	for name, script := range tables {
		t.Run(name, func(t *testing.T) {
			live := core.NewValueLog(n, self)
			f := NewMemFile()
			w := NewWriter(f, 1) // sync every record: every record is a crash point
			snaps := []snap{snapshot(live)}
			for _, step := range script {
				step(live, w)
				if rc := len(recordBounds(f.Bytes())); rc > len(snaps)-1 {
					snaps = append(snaps, snapshot(live))
				}
			}
			if w.Err() != nil {
				t.Fatalf("writer error: %v", w.Err())
			}
			whole := f.Bytes()
			bounds := recordBounds(whole)
			if len(bounds) != len(snaps)-1 {
				t.Fatalf("%d records, %d snapshots", len(bounds), len(snaps)-1)
			}
			for cut := 0; cut <= len(whole); cut++ {
				st := Recover(whole[:cut], n, self, nil)
				want := snaps[st.Records]
				if st.Log.SelfLen() != want.selfLen || st.Log.PrunedCount() != want.pruned {
					t.Fatalf("cut %d (%d records): sizes (%d,%d), want (%d,%d)",
						cut, st.Records, st.Log.SelfLen(), st.Log.PrunedCount(), want.selfLen, want.pruned)
				}
				if st.Frontier != want.frontier {
					t.Fatalf("cut %d: frontier %+v, want %+v", cut, st.Frontier, want.frontier)
				}
				if got := st.Log.AllView().Standalone(); !got.Equal(want.view) {
					t.Fatalf("cut %d: view %v, want %v", cut, got, want.view)
				}
				// A cut at a record boundary replays cleanly; mid-record
				// cuts surface as a torn tail, never anything worse.
				atBoundary := cut == 0
				for _, b := range bounds {
					if cut == b {
						atBoundary = true
					}
				}
				if atBoundary != (st.TailErr == nil) {
					t.Fatalf("cut %d: boundary=%v but tailErr=%v", cut, atBoundary, st.TailErr)
				}
				if st.TailErr != nil && !errors.Is(st.TailErr, ErrTornRecord) {
					t.Fatalf("cut %d: tail error %v, want torn record", cut, st.TailErr)
				}
			}
		})
	}
}

// TestCrashPointSyncHook kills the fsync at each successive sync point
// (power cut mid-batch) and checks the durable prefix recovers to the
// state as of the last successful sync.
func TestCrashPointSyncHook(t *testing.T) {
	const n, self = 3, 0
	for failAt := 1; failAt <= 6; failAt++ {
		f := NewMemFile()
		syncs := 0
		cut := errors.New("power cut")
		f.SyncHook = func() error {
			syncs++
			if syncs >= failAt {
				return cut
			}
			return nil
		}
		live := core.NewValueLog(n, self)
		w := NewWriter(f, 2)
		lastSynced := snapshot(live)
		prevSynced := 0
		note := func() {
			// The live log is mutated before each append, so when a sync
			// lands the current live state is exactly what became durable.
			if f.SyncedLen() > prevSynced {
				prevSynced = f.SyncedLen()
				lastSynced = snapshot(live)
			}
		}
		for i := 0; i < 8; i++ {
			v := val(core.Tag(2*i+2), i%n)
			if _, newSelf := live.Add(i%n, v); newSelf {
				w.AppendValue(i%n, v)
			}
			note()
			if i == 3 {
				live.AdvanceFrontier(8)
				w.AppendCheckpoint(live.Frontier())
				w.Sync()
				note()
			}
		}
		w.Sync()
		note()
		f.Crash()
		st := Recover(f.Durable(), n, self, nil)
		if st.TailErr != nil {
			t.Fatalf("failAt %d: durable prefix torn: %v", failAt, st.TailErr)
		}
		if st.Log.SelfLen() != lastSynced.selfLen || st.Frontier != lastSynced.frontier {
			t.Fatalf("failAt %d: recovered (%d,%+v), want (%d,%+v)",
				failAt, st.Log.SelfLen(), st.Frontier, lastSynced.selfLen, lastSynced.frontier)
		}
	}
}
