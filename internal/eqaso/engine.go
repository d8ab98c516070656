package eqaso

import (
	"mpsnap/internal/engine"
	"mpsnap/internal/rt"
	"mpsnap/internal/wal"
)

// EQ-ASO registers as the default engine: linearizable, crash-tolerant
// (n > 2f), WAL-durable and recoverable. A node the registry builds prunes
// its value log below the globally vouched checkpoint, with or without a
// WAL; New alone keeps every value (the lattice-agreement adapter's output
// is the whole value set).
func init() {
	engine.Register(engine.Info{
		Name: "eqaso",
		Doc:  "equivalence-quorum atomic snapshot (O(√k·D) worst, O(D) amortized; WAL recovery)",
		New: func(r rt.Runtime) engine.Engine {
			nd := New(r)
			nd.gc = true
			return nd
		},
		Recover: func(r rt.Runtime, st *wal.State, w *wal.Writer, gc bool) engine.Engine {
			return Recover(r, st, w, gc)
		},
	})
}
