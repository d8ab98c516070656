package eqaso

import "mpsnap/internal/rt"

// SetObserver installs an operation observer. Events emitted: "update"
// and "scan" lifecycles, with protocol phases "readTag", "disseminate",
// "writeTag", "eqWait", "eqGood"/"eqNotGood", "renewal:<1..3>", and
// "borrow" in between. Ops run on behalf of a wrapping layer (the SSO's
// RefreshView) emit phases only when that layer started an op here, which
// it does not — each layer reports its own latencies.
func (nd *Node) SetObserver(o rt.Observer) { nd.op.SetObserver(o) }

// renewalPhases are precomputed so the hot path allocates nothing.
var renewalPhases = [...]string{"renewal:1", "renewal:2", "renewal:3"}
