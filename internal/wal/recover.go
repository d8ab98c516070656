package wal

import "mpsnap/internal/core"

// State is a node's protocol state rebuilt from its WAL: the value log
// with frontier and prune point restored, plus the tag watermarks the
// node needs to never reuse a timestamp.
type State struct {
	Log *core.ValueLog
	// Frontier is the recovered checkpoint (the log's frontier after
	// replay) — the base the node rejoins from via checkpoint-delta
	// borrow.
	Frontier core.Checkpoint
	// OwnTag is the largest tag this node itself wrote before the crash.
	OwnTag core.Tag
	// MaxTag is the largest tag seen in any replayed record; seeding the
	// recovered node's tag state with it guarantees fresh operations pick
	// strictly larger tags.
	MaxTag core.Tag
	// Records is how many intact records were replayed.
	Records int
	// Intact is the byte length of the replayed intact prefix. When
	// TailErr is non-nil the file holds garbage past this offset; a
	// caller reopening the file for append must truncate to Intact first,
	// or every record it writes lands after the garbage and is lost to
	// the next replay.
	Intact int
	// TailErr describes why replay stopped, nil for a clean end. A torn
	// tail is the normal shape of a crash; everything the node acted on
	// before crashing is in the intact prefix (sync-before-act).
	TailErr error
}

// Recover replays a WAL image into a fresh ValueLog for node self of n,
// under fold (nil: the latest value wins) — the one the node's segments
// are extracted with, in force before the first record so that the pruned
// prefix's summary is a fold too. It never fails: corrupt input yields the
// state of the longest intact prefix, with TailErr saying where and why
// replay stopped.
func Recover(data []byte, n, self int, fold core.Fold) *State {
	st := &State{Log: core.NewValueLog(n, self)}
	st.Log.SetFold(fold) // cannot fail: the log is empty
	recs, intact, err := Replay(data)
	st.TailErr = err
	st.Intact = intact
	st.Records = len(recs)
	note := func(t core.Tag) {
		if t > st.MaxTag && t != core.MaxTag {
			st.MaxTag = t
		}
	}
	for _, rec := range recs {
		switch rec.Kind {
		case RecValue:
			src := rec.Src
			if src < 0 || src >= n {
				src = self // foreign src id: keep the value, skip cursor credit
			}
			st.Log.Add(src, rec.Val)
			note(rec.Val.TS.Tag)
			if rec.Val.TS.Writer == self && rec.Val.TS.Tag > st.OwnTag {
				st.OwnTag = rec.Val.TS.Tag
			}
		case RecCheckpoint:
			st.Log.AdvanceFrontier(rec.Ck.Tag)
			note(rec.Ck.Tag)
		case RecPrune:
			// The prune record attests every node had vouched rec.Ck at
			// runtime; replaying the vouches first re-establishes the
			// cursor precondition PruneTo checks.
			for j := 0; j < n; j++ {
				if j != self {
					st.Log.NoteVouch(j, rec.Ck)
				}
			}
			st.Log.PruneTo(rec.Ck)
			note(rec.Ck.Tag)
		}
	}
	st.Frontier = st.Log.Frontier()
	return st
}
