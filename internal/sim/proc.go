package sim

import (
	"fmt"

	"mpsnap/internal/rt"
)

// Proc is a simulated sequential thread of control (a "client thread" in
// the paper's model). At most one Proc runs at a time; the scheduler
// resumes it when the predicate it blocks on becomes true.
type Proc struct {
	w    *World
	name string
	// node is the node this process belongs to, or -1 for scenario
	// drivers not tied to a node. It scopes crash failures and the
	// scheduler's change-detection.
	node     int
	resumeCh chan resumeSig
	started  bool
}

type resumeSig struct{ crashed bool }

type parkMsg struct {
	p        *Proc
	done     bool
	panicVal any
	stack    []byte
}

// Go spawns a process not bound to any node (e.g. a scenario driver).
func (w *World) Go(name string, fn func(p *Proc)) *Proc {
	return w.GoNode(name, -1, fn)
}

// GoNode spawns a process bound to a node: if that node crashes, any wait
// the process is blocked on fails with rt.ErrCrashed.
func (w *World) GoNode(name string, node int, fn func(p *Proc)) *Proc {
	p := &Proc{w: w, name: name, node: node, resumeCh: make(chan resumeSig)}
	w.procs = append(w.procs, p)
	w.newProcs = append(w.newProcs, p)
	go func() {
		<-p.resumeCh // wait for the scheduler's first handover
		var pv any
		var stack []byte
		func() {
			defer func() {
				if r := recover(); r != nil {
					pv = r
					stack = []byte(debugStack())
				}
			}()
			fn(p)
		}()
		w.parkCh <- parkMsg{p: p, done: true, panicVal: pv, stack: stack}
	}()
	return p
}

// runProc hands control to p until it parks again or finishes.
func (w *World) runProc(p *Proc, crashed bool) {
	w.current = p
	p.resumeCh <- resumeSig{crashed: crashed}
	msg := <-w.parkCh
	w.current = nil
	// The process may have mutated its node's state; let blocked
	// predicates re-evaluate.
	if p.node >= 0 {
		w.nodes[p.node].version++
	} else {
		for _, ns := range w.nodes {
			ns.version++
		}
	}
	if msg.done && msg.panicVal != nil {
		panic(fmt.Sprintf("sim: proc %q panicked: %v\n%s", p.name, msg.panicVal, msg.stack))
	}
}

type waiter struct {
	p           *Proc
	node        int
	label       string
	pred        func() bool
	since       rt.Ticks
	seenVersion int64
	seenNow     rt.Ticks
}

// waitUntilThen implements the blocking primitive. It must be called from
// the goroutine of the currently running Proc.
func (p *Proc) waitUntilThen(node int, label string, pred func() bool, then func()) error {
	w := p.w
	if w.current != p {
		panic("sim: wait called from a goroutine that is not the running proc")
	}
	if node >= 0 && w.nodes[node].crashed {
		return rt.ErrCrashed
	}
	if pred() {
		p.runThen(node, then)
		return nil
	}
	wt := &waiter{p: p, node: node, label: label, pred: pred, since: w.now, seenVersion: -1}
	w.waiters = append(w.waiters, wt)
	w.parkCh <- parkMsg{p: p}
	sig := <-p.resumeCh
	if sig.crashed {
		return rt.ErrCrashed
	}
	p.runThen(node, then)
	return nil
}

// runThen runs a wait's then as a critical section of its node.
func (p *Proc) runThen(node int, then func()) {
	if node < 0 {
		then()
		return
	}
	p.w.enter(node, "a WaitUntilThen's then")
	then()
	p.w.leave(node)
}

// WaitUntil blocks p until pred() holds, respecting p's node crash scope.
// The predicate is re-evaluated when the node's state or the clock
// changes; for conditions spanning OTHER nodes' state, use
// WaitUntilGlobal.
func (p *Proc) WaitUntil(label string, pred func() bool) error {
	return p.waitUntilThen(p.node, label, pred, func() {})
}

// WaitUntilGlobal blocks p until pred() holds, re-evaluating after every
// scheduler step regardless of which node changed. Use it in scenario
// drivers whose conditions span multiple nodes. It is not crash-scoped.
func (p *Proc) WaitUntilGlobal(label string, pred func() bool) error {
	return p.waitUntilThen(-1, label, pred, func() {})
}

// Sleep suspends p for d ticks of virtual time.
func (p *Proc) Sleep(d rt.Ticks) error {
	target := p.w.now + d
	// Ensure the clock reaches the target even with an empty queue.
	p.w.schedule(target, func() {})
	return p.waitUntilThen(p.node, fmt.Sprintf("sleep(%d)", d), func() bool { return p.w.now >= target }, func() {})
}

// Sleep suspends the currently running process for d ticks — Proc.Sleep
// for callers that hold the World rather than their Proc handle.
func (w *World) Sleep(d rt.Ticks) error {
	if w.current == nil {
		panic("sim: World.Sleep called outside a process")
	}
	return w.current.Sleep(d)
}

// Now returns the current virtual time.
func (p *Proc) Now() rt.Ticks { return p.w.now }

// Name returns the process name (for diagnostics).
func (p *Proc) Name() string { return p.name }
