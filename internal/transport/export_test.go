package transport

import "time"

// LoopbackMeshWith exposes loopbackMesh's injectable node constructor.
var LoopbackMeshWith = loopbackMesh

// Epoch is the time-zero the node measures Now() from.
func (t *TCPNode) Epoch() time.Time { return t.epoch }

// Parked is the length of the node's waiter list.
func (nd *node) Parked() int {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	return len(nd.waiters)
}

// Parked is the length of node id's waiter list.
func (c *ChanNet) Parked(id int) int { return c.nodes[id].Parked() }
