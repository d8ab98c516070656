package bench

import (
	"fmt"

	"mpsnap/internal/harness"
	"mpsnap/internal/la"
	"mpsnap/internal/rt"
)

// Figure2 replays the paper's Figure 2 one-shot execution (la.Figure2) and
// returns op6's blocking time (in ticks) and its returned snapshot.
func Figure2() (rt.Ticks, []string, error) {
	var op6Wait rt.Ticks
	var op6Snap []string
	err := la.Figure2(func(op la.Figure2Op) {
		if op.Name == "op6" {
			op6Wait, op6Snap = op.Rsp-op.Inv, harness.SnapStrings(op.Snap)
		}
	})
	if err == nil && op6Snap == nil {
		err = fmt.Errorf("bench: figure2 op6 did not complete")
	}
	return op6Wait, op6Snap, err
}
