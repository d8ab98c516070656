package cluster

import (
	"sync"

	"mpsnap/internal/rt"
)

// Health tracks per-node liveness across the whole topology, fed from two
// sources: the backend's message stream (it implements rt.Observer —
// install it as the sim/transport observer, and every delivered message
// refreshes its sender) and explicit suspicion from the routing layer (a
// routed request that times out marks its contact suspect, steering later
// requests to other shard members until the suspect is heard from again).
//
// Health is advisory: routing never *requires* a node to look alive, it
// only orders contacts healthy-first. Safe for concurrent use.
type Health struct {
	mu      sync.Mutex
	suspect []bool
}

// NewHealth tracks n global nodes.
func NewHealth(n int) *Health {
	return &Health{suspect: make([]bool, n)}
}

// OnMsg implements rt.Observer: a delivered message is proof its sender
// was alive at send time, clearing suspicion.
func (h *Health) OnMsg(e rt.MsgEvent) {
	if e.Event != rt.MsgDeliver || e.Src < 0 {
		return
	}
	h.mu.Lock()
	if e.Src < len(h.suspect) {
		h.suspect[e.Src] = false
	}
	h.mu.Unlock()
}

// OnOp implements rt.Observer (operation events are not health signals).
func (h *Health) OnOp(rt.OpEvent) {}

// Suspect marks a node unresponsive (a routed request to it timed out).
// The mark clears on the next delivered message from the node.
func (h *Health) Suspect(id int) {
	h.mu.Lock()
	if id >= 0 && id < len(h.suspect) {
		h.suspect[id] = true
	}
	h.mu.Unlock()
}

// Suspected reports whether the node is currently suspect.
func (h *Health) Suspected(id int) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return id >= 0 && id < len(h.suspect) && h.suspect[id]
}
