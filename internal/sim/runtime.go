package sim

import (
	"runtime/debug"

	"mpsnap/internal/rt"
)

func debugStack() string { return string(debug.Stack()) }

// nodeRuntime adapts a World node to the rt.Runtime interface. Because the
// whole simulation is serialized by the scheduler, Atomic only runs fn
// (marking the critical section, see World.enter) and blocking waits go
// through the Proc handoff protocol.
type nodeRuntime struct {
	w  *World
	id int
}

var _ rt.Runtime = (*nodeRuntime)(nil)

func (r *nodeRuntime) ID() int { return r.id }
func (r *nodeRuntime) N() int  { return r.w.cfg.N }
func (r *nodeRuntime) F() int  { return r.w.cfg.F }

func (r *nodeRuntime) Send(dst int, msg rt.Message) { r.w.send(r.id, dst, msg, msg.Kind()) }
func (r *nodeRuntime) Broadcast(msg rt.Message)     { r.w.broadcast(r.id, msg) }

func (r *nodeRuntime) Atomic(fn func()) {
	r.w.enter(r.id, "Atomic")
	fn()
	r.w.leave(r.id)
}

func (r *nodeRuntime) WaitUntilThen(label string, pred func() bool, then func()) error {
	p := r.w.current
	if p == nil {
		panic("sim: WaitUntilThen called outside a process (handlers must not block)")
	}
	if in := r.w.nodes[r.id].inside; in != "" {
		panic("sim: WaitUntilThen inside " + in + " would block holding the node's critical section")
	}
	return p.waitUntilThen(r.id, label, pred, then)
}

func (r *nodeRuntime) Now() rt.Ticks { return r.w.now }

func (r *nodeRuntime) Crashed() bool { return r.w.nodes[r.id].crashed }
