package transport

import "time"

// LoopbackMeshWith exposes loopbackMesh's injectable node constructor.
var LoopbackMeshWith = loopbackMesh

// Epoch is the time-zero the node measures Now() from.
func (t *TCPNode) Epoch() time.Time { return t.start }
