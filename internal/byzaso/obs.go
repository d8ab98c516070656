package byzaso

import "mpsnap/internal/rt"

// SetObserver installs an operation observer. Events emitted: "update"
// and "scan" lifecycles with protocol phases "stable" (value held and tag
// corroborated at a quorum), "readTag", and "lattice" (one mark per
// lattice-loop round) in between.
func (nd *Node) SetObserver(o rt.Observer) { nd.op.SetObserver(o) }
