package explore

import (
	"fmt"

	"mpsnap/internal/harness"
	"mpsnap/internal/history"
	"mpsnap/internal/sim"
)

// UpdateThenScan builds the canonical two-operation scenario on three
// nodes: node 0 updates; after the update completes, node 2 scans. A
// linearizable object must make the scan see the update under EVERY
// schedule. mk constructs node i's object on w and installs its handler.
func UpdateThenScan(mk func(w *sim.World, i int) harness.Object) func(s sim.Sequencer) error {
	return func(s sim.Sequencer) error {
		const n, f = 3, 1
		w := sim.New(sim.Config{N: n, F: f, Seed: 1, Sequencer: s})
		objs := make([]harness.Object, n)
		for i := 0; i < n; i++ {
			objs[i] = mk(w, i)
		}
		rec := history.NewRecorder(n)
		var updDone bool
		w.GoNode("u0", 0, func(p *sim.Proc) {
			pend := rec.BeginUpdate(0, "a", w.Now())
			if err := objs[0].Update([]byte("a")); err != nil {
				return
			}
			pend.End(w.Now())
			updDone = true
		})
		w.GoNode("s2", 2, func(p *sim.Proc) {
			if err := p.WaitUntilGlobal("update done", func() bool { return updDone }); err != nil {
				return
			}
			// Advance the clock so the scan strictly follows the update
			// in real time (equal timestamps would make them concurrent
			// and mask violations).
			if err := p.Sleep(1); err != nil {
				return
			}
			pend := rec.BeginScan(2, w.Now())
			snap, err := objs[2].Scan()
			if err != nil {
				return
			}
			pend.EndScan(harness.SnapStrings(snap), w.Now())
		})
		if err := w.Run(); err != nil {
			return fmt.Errorf("run: %w", err)
		}
		if rep := rec.History().CheckLinearizable(); !rep.OK {
			return fmt.Errorf("%s", rep.Violations[0])
		}
		return nil
	}
}
