package bench

import (
	"fmt"
	"time"

	"mpsnap/internal/core"
	"mpsnap/internal/wal"
)

// The recovery experiment measures crash-recovery at the WAL/value-log
// level: a node lives through H value arrivals under the protocol's
// durability discipline (every value appended, a checkpoint every window,
// and — with GC — a prune record once the previous checkpoint is globally
// vouched), then crashes and replays its durable image with wal.Recover.
//
// Two claims are on trial as H grows:
//   - recovery latency tracks the WAL size (replay is one linear pass —
//     no index rebuild, no quadratic rescans);
//   - with GC on, the recovered log's resident bytes stay flat (the prune
//     records replay too, so a restarted node holds the active window,
//     not the whole history); with GC off they grow linearly in H.

// RecoveryPoint is the cost of one crash-recovery at one history length.
type RecoveryPoint struct {
	GC        bool    `json:"gc"`
	H         int     `json:"h"`        // values written before the crash
	WALBytes  int     `json:"walBytes"` // durable image size
	Records   int     `json:"records"`  // intact records replayed
	RecoverNs float64 `json:"recoverNs"`
	HeapBytes int     `json:"heapBytes"` // recovered value log resident size
	Retained  int     `json:"retained"`  // values held physically after replay
	Pruned    int     `json:"pruned"`    // values below the replayed prune point
}

// recoveryWAL writes the durable image of a node that lived through h
// values with a checkpoint every window (and, with gc, a prune of each
// checkpoint one window after it was taken, mirroring the vouch lag a
// live cluster has).
func recoveryWAL(n, h, window int, gc bool) *wal.MemFile {
	f := wal.NewMemFile()
	w := wal.NewWriter(f, 64)
	l := core.NewValueLog(n, 0)
	var lastCk core.Checkpoint
	for i := 0; i < h; i++ {
		v := arrival(i, n, "recovery-payload-0123456789abcdef")
		if src := v.TS.Writer; src == 0 {
			l.AddSelf(v)
			w.AppendValue(src, v)
			w.Sync() // own values sync before dissemination
		} else {
			l.Add(src, v)
			w.AppendValue(src, v)
		}
		if (i+1)%window != 0 {
			continue
		}
		l.AdvanceFrontier(core.Tag(i + 1))
		ck := l.Frontier()
		w.AppendCheckpoint(ck) // vouched once a later sync covers it
		if gc && lastCk.Count > 0 {
			for j := 1; j < n; j++ {
				l.NoteVouch(j, lastCk)
			}
			w.AppendPrune(lastCk) // likewise executed after a later sync
			l.PruneTo(lastCk)
		}
		lastCk = ck
	}
	w.Sync()
	return f
}

// recoveryLimit caps the GC-on recovered heap's growth across the H
// sweep: the flat-residency acceptance criterion (replay latency is too
// noisy to gate on; residency is a deterministic function of the WAL
// contents). The GC-off ratio documents the O(H) residency being pruned
// away.
const recoveryLimit = 2.0

// recovery sweeps history lengths hs for GC off and on, measuring the WAL
// replay latency and the recovered log's residency with n nodes and
// `window` values per checkpoint, averaging the timed replay over reps.
func recovery(p Params) (*Report, error) {
	n, window, reps, hs := 8, 128, 3, []int{1024, 4096, 16384, 65536}
	if p.Quick {
		hs = []int{1024, 4096, 16384}
	}
	var points []RecoveryPoint
	t := Table{Title: fmt.Sprintf("Crash-recovery: WAL replay and recovered residency, n=%d, checkpoint every %d values\n", n, window)}
	t.Row("gc\tH\tWAL KB\trecords\trecover µs\theap KB\tretained\tpruned")
	for _, gc := range []bool{false, true} {
		for _, h := range hs {
			data := recoveryWAL(n, h, window, gc).Durable()
			var st *wal.State
			start := time.Now()
			for r := 0; r < reps; r++ {
				st = wal.Recover(data, n, 0, nil)
			}
			elapsed := time.Since(start)
			pt := RecoveryPoint{
				GC:        gc,
				H:         h,
				WALBytes:  len(data),
				Records:   st.Records,
				RecoverNs: float64(elapsed.Nanoseconds()) / float64(reps),
				HeapBytes: st.Log.HeapBytes(),
				Retained:  st.Log.RetainedLen(),
				Pruned:    st.Log.PrunedCount(),
			}
			points = append(points, pt)
			t.Row("%v\t%d\t%.0f\t%d\t%.0f\t%.0f\t%d\t%d",
				pt.GC, pt.H, float64(pt.WALBytes)/1024, pt.Records, pt.RecoverNs/1e3,
				float64(pt.HeapBytes)/1024, pt.Retained, pt.Pruned)
		}
	}
	// The sweep ran GC off over every H, then GC on.
	last := len(hs) - 1
	noGC := ratio(float64(points[last].HeapBytes), float64(points[0].HeapBytes))
	withGC := ratio(float64(points[len(hs)+last].HeapBytes), float64(points[len(hs)].HeapBytes))
	span := fmt.Sprintf("%d→%d", hs[0], hs[last])
	t.Notes = fmt.Sprintf("recovered heap growth %s: GC on %.2f× (must stay ≤%.1f×), GC off %.2f× (linear in H)\n",
		span, withGC, recoveryLimit, noGC)
	return &Report{
		Params:  map[string]any{"n": n, "window": window, "reps": reps, "hs": hs},
		Points:  points,
		Derived: map[string]float64{"gcHeapGrowth": withGC, "noGCHeapGrowth": noGC},
		Table:   t,
		check:   atMost("recovery: GC-on recovered heap growth over H="+span, withGC, recoveryLimit),
	}, nil
}
