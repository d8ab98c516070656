package bench

import (
	"fmt"
	"sort"

	"mpsnap/internal/engine"
	"mpsnap/internal/harness"
	"mpsnap/internal/history"
	"mpsnap/internal/rt"
	"mpsnap/internal/sim"
)

// The engine bake-off runs every registered engine through one identical
// two-phase workload on the fault-free constant-D simulator: first every
// node issues opsPerNode updates (staggered), then the cluster quiesces
// (all writes fully replicated everywhere), then every node issues
// opsPerNode scans. The scan phase is therefore contention-free — the
// regime where fastsnap's one-round fast path and acr's committed-cache
// hit must beat EQ-ASO's multi-round scan, which is the acceptance gate
// Check enforces. Latencies are computed from the recorded history, so
// engines without op-event instrumentation are measured identically.

// OpLatency is the UPDATE/SCAN latency digest, in D units, that the
// bake-off and the latency sweep both report per row.
type OpLatency struct {
	UpdateCount int     `json:"updateCount"`
	UpdateP50   float64 `json:"updateP50"`
	UpdateP99   float64 `json:"updateP99"`
	UpdateMax   float64 `json:"updateMax"`

	ScanCount int     `json:"scanCount"`
	ScanP50   float64 `json:"scanP50"`
	ScanP99   float64 `json:"scanP99"`
	ScanMax   float64 `json:"scanMax"`
}

// EnginePoint is one engine's measurements in the bake-off.
type EnginePoint struct {
	Engine string `json:"engine"`
	N      int    `json:"n"`
	F      int    `json:"f"`
	Unit   string `json:"unit"` // always "d" (sim backend)
	OpLatency
	Msgs        int64 `json:"msgs"`
	CheckPassed bool  `json:"checkPassed"`
}

// engines executes the bake-off over every registered engine.
func engines(p Params) (*Report, error) {
	n, opsPerNode := 7, 12
	if p.Quick {
		n, opsPerNode = 5, 8
	}
	var points []EnginePoint
	t := Table{Title: fmt.Sprintf("Engine bake-off: n=%d (byzantine engines use f=%d), %d updates + %d scans per node,\n",
		n, (n-1)/3, opsPerNode, opsPerNode) +
		"constant-D delays, scans issued after full quiescence (contention-free)\n"}
	t.Row("engine\tupd p50\tupd p99\tupd max\tscan p50\tscan p99\tscan max\tmsgs\tcheck")
	for _, name := range engine.Names() {
		pt, err := engineSweep(name, n, opsPerNode, p.Seed)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		points = append(points, pt)
		t.Row("%s\t%.1fD\t%.1fD\t%.1fD\t%.1fD\t%.1fD\t%.1fD\t%d\tok",
			pt.Engine, pt.UpdateP50, pt.UpdateP99, pt.UpdateMax, pt.ScanP50, pt.ScanP99, pt.ScanMax, pt.Msgs)
	}
	t.Notes = "shape: with no scan/update contention, fastsnap's one-collect fast path and\n" +
		"acr's committed-cache hit finish in ~2D — below eqaso's multi-round scan —\n" +
		"while sso stays ~0 (local reads, sequential consistency only).\n"
	return &Report{
		Params: map[string]any{"n": n, "opsPerNode": opsPerNode},
		Points: points,
		Table:  t,
		check:  func() error { return checkEngines(points) },
	}, nil
}

// engineSweep runs the two-phase workload on one engine.
func engineSweep(name string, n, opsPerNode int, seed int64) (EnginePoint, error) {
	f := bound(Algo(name), n)
	pt := EnginePoint{Engine: name, N: n, F: f, Unit: "d"}

	c := build(sim.Config{N: n, F: f, Seed: seed, Delay: sim.Constant{Ticks: rt.TicksPerD}}, Algo(name))

	// Quiescence point: by this virtual time every update has completed
	// AND its writes have reached all n servers (fault-free, delay ≤ D),
	// so the scan phase sees a stable, fully-replicated state. Generous:
	// worst fault-free update latency across the engines is ~6D plus the
	// 2D stagger.
	quiesce := rt.Ticks(10*opsPerNode+20) * rt.TicksPerD
	for i := 0; i < n; i++ {
		i := i
		c.Client(i, func(o *harness.OpRunner) {
			// Stagger the nodes so the update phase has real interleaving.
			_ = o.P.Sleep(rt.Ticks(i) * rt.TicksPerD / 4)
			for k := 0; k < opsPerNode; k++ {
				if _, err := o.Update(); err != nil {
					return
				}
			}
			if wait := quiesce - o.P.Now(); wait > 0 {
				if err := o.P.Sleep(wait); err != nil {
					return
				}
			}
			for k := 0; k < opsPerNode; k++ {
				if _, err := o.Scan(); err != nil {
					return
				}
			}
		})
	}

	h, err := c.Run()
	if err != nil {
		return pt, err
	}
	pt.CheckPassed = consistent(Algo(name), h)
	if !pt.CheckPassed {
		return pt, fmt.Errorf("history check failed")
	}
	ws := c.W.Stats()
	pt.Msgs = ws.MsgsTotal

	var upd, scan []float64
	for _, op := range h.Ops {
		if op.Pending() {
			continue
		}
		l := (op.Resp - op.Inv).DUnits()
		if op.Type == history.Update {
			upd = append(upd, l)
		} else {
			scan = append(scan, l)
		}
	}
	pt.UpdateCount, pt.ScanCount = len(upd), len(scan)
	pt.UpdateP50, pt.UpdateP99, pt.UpdateMax = quantiles(upd)
	pt.ScanP50, pt.ScanP99, pt.ScanMax = quantiles(scan)
	return pt, nil
}

// quantiles digests one op kind's latencies.
func quantiles(vals []float64) (p50, p99, max float64) {
	if len(vals) == 0 {
		return 0, 0, 0
	}
	sort.Float64s(vals)
	return harness.Percentile(vals, 0.50), harness.Percentile(vals, 0.99), vals[len(vals)-1]
}

// checkEngines enforces the bake-off acceptance criteria: every engine's
// history check passed, and fastsnap's contention-free SCAN p50 is strictly
// below EQ-ASO's.
func checkEngines(points []EnginePoint) error {
	byName := map[string]EnginePoint{}
	for _, p := range points {
		if !p.CheckPassed {
			return fmt.Errorf("engines: %s failed its history check", p.Engine)
		}
		byName[p.Engine] = p
	}
	fs, ok1 := byName["fastsnap"]
	eq, ok2 := byName["eqaso"]
	if !ok1 || !ok2 {
		return fmt.Errorf("engines: bake-off missing fastsnap or eqaso row")
	}
	if fs.ScanP50 >= eq.ScanP50 {
		return fmt.Errorf("engines: fastsnap scan p50 %.2fD is not below eqaso's %.2fD under the contention-free workload",
			fs.ScanP50, eq.ScanP50)
	}
	return nil
}
