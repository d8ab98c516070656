package bench

import (
	"fmt"
	"strings"
	"text/tabwriter"
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

// Recovery is the full experiment result, serialized to
// BENCH_recovery.json by cmd/asobench -e recovery.
type Recovery struct {
	Env    Env   `json:"env"`
	N      int   `json:"n"`      // cluster size
	Window int   `json:"window"` // values per checkpoint window
	Hs     []int `json:"hs"`

	Points []RecoveryPoint `json:"points"`

	// Heap growth ratios from the smallest to the largest H. The GC-on
	// ratio is the flatness criterion; the GC-off ratio documents the
	// O(H) residency being pruned away.
	GCHeapGrowth   float64 `json:"gcHeapGrowth"`
	NoGCHeapGrowth float64 `json:"noGCHeapGrowth"`
}

// recoveryValue deterministically derives the i-th arriving value.
func recoveryValue(i, n int) core.Value {
	return core.Value{
		TS:      core.Timestamp{Tag: core.Tag(i + 1), Writer: i % n},
		Payload: []byte("recovery-payload-0123456789abcdef"),
	}
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
		v := recoveryValue(i, n)
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
		w.AppendCheckpoint(ck)
		w.Sync() // checkpoints sync before vouching
		if gc && lastCk.Count > 0 {
			for j := 1; j < n; j++ {
				l.NoteVouch(j, lastCk)
			}
			w.AppendPrune(lastCk)
			w.Sync() // prunes sync before executing
			l.PruneTo(lastCk)
		}
		lastCk = ck
	}
	w.Sync()
	return f
}

// RunRecovery sweeps history lengths hs for GC off and on, measuring the
// WAL replay latency and the recovered log's residency with n nodes and
// `window` values per checkpoint, averaging the timed replay over reps.
func RunRecovery(n, window, reps int, hs []int) Recovery {
	out := Recovery{Env: CaptureEnv(), N: n, Window: window, Hs: hs}
	for _, gc := range []bool{false, true} {
		for _, h := range hs {
			f := recoveryWAL(n, h, window, gc)
			data := f.Durable()
			var st *wal.State
			start := time.Now()
			for r := 0; r < reps; r++ {
				st = wal.Recover(data, n, 0)
			}
			elapsed := time.Since(start)
			out.Points = append(out.Points, RecoveryPoint{
				GC:        gc,
				H:         h,
				WALBytes:  len(data),
				Records:   st.Records,
				RecoverNs: float64(elapsed.Nanoseconds()) / float64(reps),
				HeapBytes: st.Log.HeapBytes(),
				Retained:  st.Log.RetainedLen(),
				Pruned:    st.Log.PrunedCount(),
			})
		}
	}
	out.GCHeapGrowth = out.heapGrowth(true)
	out.NoGCHeapGrowth = out.heapGrowth(false)
	return out
}

// heapGrowth returns HeapBytes(largest H) / HeapBytes(smallest H) for one
// GC setting.
func (r Recovery) heapGrowth(gc bool) float64 {
	var first, last float64
	seen := false
	for _, p := range r.Points {
		if p.GC != gc {
			continue
		}
		if !seen {
			first = float64(p.HeapBytes)
			seen = true
		}
		last = float64(p.HeapBytes)
	}
	if !seen || first == 0 {
		return 0
	}
	return last / first
}

// recoveryLimit caps the GC-on recovered heap's growth across the H sweep.
const recoveryLimit = 2.0

// Check enforces the flat-residency acceptance criterion: with GC on, the
// recovered log's heap bytes may grow at most recoveryLimit× across the
// whole H sweep (replay latency is too noisy to gate on; residency is a
// deterministic function of the WAL contents).
func (r Recovery) Check() error {
	if r.GCHeapGrowth > recoveryLimit {
		return fmt.Errorf("recovery: GC-on recovered heap grew %.2f× from H=%d to H=%d (limit %.2f×)",
			r.GCHeapGrowth, r.Hs[0], r.Hs[len(r.Hs)-1], recoveryLimit)
	}
	return nil
}

// Render formats the experiment as the human-readable table printed by
// cmd/asobench -e recovery.
func (r Recovery) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Crash-recovery: WAL replay and recovered residency, n=%d, checkpoint every %d values\n",
		r.N, r.Window)
	w := tabwriter.NewWriter(&sb, 2, 0, 2, ' ', 0)
	fmt.Fprintf(w, "gc\tH\tWAL KB\trecords\trecover µs\theap KB\tretained\tpruned\n")
	for _, p := range r.Points {
		fmt.Fprintf(w, "%v\t%d\t%.0f\t%d\t%.0f\t%.0f\t%d\t%d\n",
			p.GC, p.H, float64(p.WALBytes)/1024, p.Records, p.RecoverNs/1e3,
			float64(p.HeapBytes)/1024, p.Retained, p.Pruned)
	}
	w.Flush()
	fmt.Fprintf(&sb, "recovered heap growth %d→%d: GC on %.2f× (must stay ≤%.1f×), GC off %.2f× (linear in H)\n",
		r.Hs[0], r.Hs[len(r.Hs)-1], r.GCHeapGrowth, recoveryLimit, r.NoGCHeapGrowth)
	return sb.String()
}
