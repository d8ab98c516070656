package bench

import (
	"fmt"
	"runtime"
	"strings"
	"text/tabwriter"
	"time"

	"mpsnap/internal/core"
)

// The hotpath experiment measures history independence directly at the
// data-structure level: the steady-state cost of one "operation window"
// (W value arrivals followed by one good lattice cycle: EQ-tracker setup,
// view materialization, frontier freeze) as the total history H grows.
// The paper's protocols run exactly this cycle per UPDATE/SCAN, so a
// per-window cost that is flat in H is what makes long-running nodes
// sustainable.
//
// Two engines run the same workload: the reference map engine (per-peer
// ValueSets, rescanned per cycle) and the shared value-log engine
// (per-peer cursors, prefix index, zero-copy frozen views). The log
// engine's allocations per window must stay flat as H grows 64×; the map
// engine's bytes per window grow linearly (each view copies the whole
// history), which is the regression the experiment guards against.

// HotpathPoint is the steady-state cost of one operation window for one
// engine at one history length.
type HotpathPoint struct {
	Engine          string  `json:"engine"` // "map" or "log"
	H               int     `json:"h"`      // prefilled history length
	NsPerWindow     float64 `json:"nsPerWindow"`
	AllocsPerWindow float64 `json:"allocsPerWindow"`
	BytesPerWindow  float64 `json:"bytesPerWindow"`
}

// Hotpath is the full experiment result, serialized to
// BENCH_hotpath.json by cmd/asobench -e hotpath.
type Hotpath struct {
	Env     Env   `json:"env"`
	N       int   `json:"n"`       // cluster size
	Window  int   `json:"window"`  // value arrivals per operation window
	Windows int   `json:"windows"` // measured windows per point
	Hs      []int `json:"hs"`

	Points []HotpathPoint `json:"points"`

	// Growth ratios from the smallest to the largest H. The log engine's
	// allocation growth is the flatness criterion (deterministic, unlike
	// wall time); the map engine's byte growth documents the O(H) per-op
	// behavior being replaced.
	LogAllocGrowth float64 `json:"logAllocGrowth"`
	MapBytesGrowth float64 `json:"mapBytesGrowth"`
}

// hotpathEngine is one implementation of the per-window protocol cycle.
type hotpathEngine interface {
	name() string
	// add records the arrival of v from node src.
	add(src int, v core.Value)
	// goodOp runs one good lattice cycle at tag r: EQ-tracker setup over
	// all peers, then materializing the decided view (and, for the log,
	// freezing the now-stable prefix).
	goodOp(r core.Tag, quorum int)
	// stabilize is the prefill-time frontier advance: it has a state
	// effect only on the log engine (the map engine rebuilds views from
	// scratch every time, so running full cycles during prefill would
	// only burn time without changing what is measured).
	stabilize(r core.Tag)
}

type mapEngine struct{ V []*core.ValueSet }

func newMapEngine(n int) *mapEngine {
	e := &mapEngine{V: make([]*core.ValueSet, n)}
	for j := range e.V {
		e.V[j] = core.NewValueSet()
	}
	return e
}

func (e *mapEngine) name() string { return "map" }

func (e *mapEngine) add(src int, v core.Value) {
	e.V[src].Add(v)
	e.V[0].Add(v)
}

func (e *mapEngine) goodOp(r core.Tag, quorum int) {
	t := core.NewEQTracker(e.V, 0, r, quorum)
	_ = t.Satisfied()
	_ = e.V[0].ViewLE(r)
}

func (e *mapEngine) stabilize(core.Tag) {}

type logEngine struct{ l *core.ValueLog }

func newLogEngine(n int) *logEngine { return &logEngine{l: core.NewValueLog(n, 0)} }

func (e *logEngine) name() string { return "log" }

func (e *logEngine) add(src int, v core.Value) { e.l.Add(src, v) }

func (e *logEngine) goodOp(r core.Tag, quorum int) {
	t := core.NewEQTrackerFromLog(e.l, r, quorum)
	_ = t.Satisfied()
	e.l.AdvanceFrontier(r)
	_ = e.l.ViewLE(r)
}

func (e *logEngine) stabilize(r core.Tag) { e.l.AdvanceFrontier(r) }

// hotpathValue deterministically derives the i-th arriving value.
func hotpathValue(i, n int) core.Value {
	return core.Value{
		TS:      core.Timestamp{Tag: core.Tag(i + 1), Writer: i % n},
		Payload: []byte("hotpath-payload-0123456789abcdef"),
	}
}

// RunHotpath sweeps history lengths hs for both engines, measuring the
// steady-state per-window cost with n nodes and `window` arrivals per
// window, averaged over `windows` measured windows.
func RunHotpath(n, window, windows int, hs []int) Hotpath {
	out := Hotpath{Env: CaptureEnv(), N: n, Window: window, Windows: windows, Hs: hs}
	quorum := n - (n-1)/2
	for _, mk := range []func(int) hotpathEngine{
		func(n int) hotpathEngine { return newMapEngine(n) },
		func(n int) hotpathEngine { return newLogEngine(n) },
	} {
		for _, h := range hs {
			e := mk(n)
			// Prefill H values; keep the log's frontier tracking its
			// history the way a live node's good operations would.
			for i := 0; i < h; i++ {
				e.add(i%n, hotpathValue(i, n))
				if (i+1)%window == 0 {
					e.stabilize(core.Tag(i + 1))
				}
			}
			// Pre-build the measured values so the timed region contains
			// only engine work.
			vals := make([]core.Value, windows*window)
			for i := range vals {
				vals[i] = hotpathValue(h+i, n)
			}
			runtime.GC()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			start := time.Now()
			for w := 0; w < windows; w++ {
				for i := 0; i < window; i++ {
					k := w*window + i
					e.add((h+k)%n, vals[k])
				}
				e.goodOp(core.Tag(h+(w+1)*window), quorum)
			}
			elapsed := time.Since(start)
			runtime.ReadMemStats(&after)
			out.Points = append(out.Points, HotpathPoint{
				Engine:          e.name(),
				H:               h,
				NsPerWindow:     float64(elapsed.Nanoseconds()) / float64(windows),
				AllocsPerWindow: float64(after.Mallocs-before.Mallocs) / float64(windows),
				BytesPerWindow:  float64(after.TotalAlloc-before.TotalAlloc) / float64(windows),
			})
		}
	}
	out.LogAllocGrowth = out.growth("log", func(p HotpathPoint) float64 { return p.AllocsPerWindow })
	out.MapBytesGrowth = out.growth("map", func(p HotpathPoint) float64 { return p.BytesPerWindow })
	return out
}

// growth returns metric(largest H) / metric(smallest H) for one engine.
func (h Hotpath) growth(engine string, metric func(HotpathPoint) float64) float64 {
	var first, last float64
	seen := false
	for _, p := range h.Points {
		if p.Engine != engine {
			continue
		}
		if !seen {
			first = metric(p)
			seen = true
		}
		last = metric(p)
	}
	if !seen || first == 0 {
		return 0
	}
	return last / first
}

// hotpathLimit caps the log engine's allocs/window growth across the H
// sweep.
const hotpathLimit = 1.5

// Check enforces the flat-growth acceptance criterion: the log engine's
// allocations per window may grow at most hotpathLimit× across the whole
// H sweep (wall time is too noisy to gate on; allocation counts are
// deterministic for this single-goroutine workload).
func (h Hotpath) Check() error {
	if h.LogAllocGrowth > hotpathLimit {
		return fmt.Errorf("hotpath: log engine allocs/window grew %.2f× from H=%d to H=%d (limit %.2f×)",
			h.LogAllocGrowth, h.Hs[0], h.Hs[len(h.Hs)-1], hotpathLimit)
	}
	return nil
}

// Render formats the experiment as the human-readable table printed by
// cmd/asobench -e hotpath.
func (h Hotpath) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "History-independent hot path: per-window cost (%d arrivals + 1 good lattice cycle), n=%d, %d windows/point\n",
		h.Window, h.N, h.Windows)
	w := tabwriter.NewWriter(&sb, 2, 0, 2, ' ', 0)
	fmt.Fprintf(w, "engine\tH\tns/window\tallocs/window\tKB/window\n")
	for _, p := range h.Points {
		fmt.Fprintf(w, "%s\t%d\t%.0f\t%.1f\t%.1f\n",
			p.Engine, p.H, p.NsPerWindow, p.AllocsPerWindow, p.BytesPerWindow/1024)
	}
	w.Flush()
	fmt.Fprintf(&sb, "growth %d→%d: log allocs %.2f× (must stay ≤%.1f×), map bytes %.2f× (linear in H)\n",
		h.Hs[0], h.Hs[len(h.Hs)-1], h.LogAllocGrowth, hotpathLimit, h.MapBytesGrowth)
	return sb.String()
}
