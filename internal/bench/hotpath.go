package bench

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"mpsnap/internal/core"
)

// The hotpath experiment measures history independence directly at the
// data-structure level: the steady-state cost of one "operation window"
// (W value arrivals followed by one good lattice cycle: EQ-tracker setup,
// view materialization, frontier freeze) as the total history H grows.
// One value per window is a straggler: held back and delivered after the
// cycle, below the frontier it just advanced — real meshes reorder about
// one arrival in sixty that way, a few positions from the end of the log.
// The paper's protocols run exactly this cycle per UPDATE/SCAN, so a
// per-window cost that is flat in H is what makes long-running nodes
// sustainable.
//
// Two engines run the same workload: the reference map engine (per-peer
// ValueSets, rescanned per cycle) and the shared value-log engine
// (per-peer cursors, prefix index, zero-copy frozen views). The log
// engine's allocations and bytes per window must stay flat as H grows 64×
// (a straggler that copied the history would show as O(H) bytes in one
// allocation); the map engine's bytes per window grow linearly (each view
// copies the whole history), which is the regression the experiment guards
// against.

// HotpathPoint is the steady-state cost of one operation window for one
// engine at one history length.
type HotpathPoint struct {
	Engine          string  `json:"engine"` // "map" or "log"
	H               int     `json:"h"`      // prefilled history length
	NsPerWindow     float64 `json:"nsPerWindow"`
	AllocsPerWindow float64 `json:"allocsPerWindow"`
	BytesPerWindow  float64 `json:"bytesPerWindow"`
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

func newMapEngine(n int) hotpathEngine {
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

type logEngine struct {
	l  *core.ValueLog
	eq core.EQTracker // re-armed per operation, as a node keeps its one
}

func newLogEngine(n int) hotpathEngine { return &logEngine{l: core.NewValueLog(n, 0)} }

func (e *logEngine) name() string { return "log" }

func (e *logEngine) add(src int, v core.Value) { e.l.Add(src, v) }

func (e *logEngine) goodOp(r core.Tag, quorum int) {
	e.eq.ResetFromLog(e.l, r, quorum)
	_ = e.eq.Satisfied()
	e.l.AdvanceFrontier(r)
	_ = e.l.ViewLE(r)
}

func (e *logEngine) stabilize(r core.Tag) { e.l.AdvanceFrontier(r) }

// arrival deterministically derives the i-th value of a round-robin
// arrival stream over n writers (the hotpath and recovery workloads).
func arrival(i, n int, payload string) core.Value {
	return core.Value{TS: core.Timestamp{Tag: core.Tag(i + 1), Writer: i % n}, Payload: []byte(payload)}
}

// hotpathLimit caps the log engine's allocs/window and bytes/window growth
// across the H sweep: the flat-growth acceptance criterion (wall time is
// too noisy to gate on; allocation counts and volume are deterministic for
// this single-goroutine workload). The map engine's byte growth documents
// the O(H) per-op behavior being replaced.
const hotpathLimit = 1.5

// hotpathStraggler is how far below the end of its window the held-back
// value sits.
const hotpathStraggler = 8

// hotpath sweeps history lengths hs for both engines, measuring the
// steady-state per-window cost with n nodes and `window` arrivals per
// window, averaged over `windows` measured windows.
func hotpath(p Params) (*Report, error) {
	n, window, windows, hs := 8, 128, 16, []int{1024, 4096, 16384, 65536}
	if p.Quick {
		windows, hs = 8, []int{1024, 4096, 16384}
	}
	const payload = "hotpath-payload-0123456789abcdef"
	var points []HotpathPoint
	var t Table
	t.Title = fmt.Sprintf("History-independent hot path: per-window cost (%d arrivals, 1 of them a straggler, + 1 good lattice cycle), n=%d, %d windows/point\n",
		window, n, windows)
	t.Row("engine\tH\tns/window\tallocs/window\tKB/window")
	quorum := n - (n-1)/2
	for _, mk := range []func(int) hotpathEngine{newMapEngine, newLogEngine} {
		for _, h := range hs {
			e := mk(n)
			// Prefill H values; keep the log's frontier tracking its
			// history the way a live node's good operations would.
			for i := 0; i < h; i++ {
				e.add(i%n, arrival(i, n, payload))
				if (i+1)%window == 0 {
					e.stabilize(core.Tag(i + 1))
				}
			}
			// Pre-build the measured values so the timed region contains
			// only engine work.
			vals := make([]core.Value, windows*window)
			for i := range vals {
				vals[i] = arrival(h+i, n, payload)
			}
			runtime.GC()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			start := time.Now()
			for w := 0; w < windows; w++ {
				held := (w+1)*window - hotpathStraggler
				for k := w * window; k < (w+1)*window; k++ {
					if k != held {
						e.add((h+k)%n, vals[k])
					}
				}
				e.goodOp(core.Tag(h+(w+1)*window), quorum)
				e.add((h+held)%n, vals[held])
			}
			elapsed := time.Since(start)
			runtime.ReadMemStats(&after)
			pt := HotpathPoint{
				Engine:          e.name(),
				H:               h,
				NsPerWindow:     float64(elapsed.Nanoseconds()) / float64(windows),
				AllocsPerWindow: float64(after.Mallocs-before.Mallocs) / float64(windows),
				BytesPerWindow:  float64(after.TotalAlloc-before.TotalAlloc) / float64(windows),
			}
			points = append(points, pt)
			t.Row("%s\t%d\t%.0f\t%.1f\t%.1f", pt.Engine, pt.H, pt.NsPerWindow, pt.AllocsPerWindow, pt.BytesPerWindow/1024)
		}
	}
	// The sweep ran the map engine over every H, then the log engine.
	last := len(hs) - 1
	mapBytes := ratio(points[last].BytesPerWindow, points[0].BytesPerWindow)
	logAllocs := ratio(points[len(hs)+last].AllocsPerWindow, points[len(hs)].AllocsPerWindow)
	logBytes := ratio(points[len(hs)+last].BytesPerWindow, points[len(hs)].BytesPerWindow)
	span := fmt.Sprintf("%d→%d", hs[0], hs[last])
	t.Notes = fmt.Sprintf("growth %s: log allocs %.2f×, log bytes %.2f× (both must stay ≤%.1f×), map bytes %.2f× (linear in H)\n",
		span, logAllocs, logBytes, hotpathLimit, mapBytes)
	return &Report{
		Params:  map[string]any{"n": n, "window": window, "windows": windows, "hs": hs},
		Points:  points,
		Derived: map[string]float64{"logAllocGrowth": logAllocs, "logBytesGrowth": logBytes, "mapBytesGrowth": mapBytes},
		Table:   t,
		check: func() error {
			return errors.Join(
				atMost("hotpath: log engine allocs/window growth over H="+span, logAllocs, hotpathLimit)(),
				atMost("hotpath: log engine bytes/window growth over H="+span, logBytes, hotpathLimit)())
		},
	}, nil
}
