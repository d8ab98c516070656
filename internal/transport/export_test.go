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

// Locked runs fn while holding the node's lock and ends without a
// release, as a thread that is past its release but not yet unlocked.
func (nd *node) Locked(fn func()) {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	fn()
}

// Locked is node id's Locked.
func (c *ChanNet) Locked(id int, fn func()) { c.nodes[id].Locked(fn) }

// Retained is how many entries the node's link queues and waiter list
// have room for.
func (nd *node) Retained() int {
	nd.mu.Lock()
	n := cap(nd.waiters)
	nd.mu.Unlock()
	for _, l := range nd.out {
		l.mu.Lock()
		n += cap(l.in)
		l.mu.Unlock()
	}
	return n
}

// Retained is node id's Retained.
func (c *ChanNet) Retained(id int) int { return c.nodes[id].Retained() }
