package transport

import (
	"sync"
	"sync/atomic"
	"time"

	"mpsnap/internal/rt"
	"mpsnap/internal/wire"
)

// node is one real-time process of either transport: its fixed identity,
// clock and observer, the mutex every handler and critical section holds,
// the waiter list, and crash and restart. The transport supplies enqueue,
// which hands one message to its link toward dst without blocking.
type node struct {
	id, n, f int
	// d is the wall time of one rt.TicksPerD; the clock counts from epoch.
	d       time.Duration
	epoch   time.Time
	obs     rt.Observer
	enqueue func(dst int, msg rt.Message)

	mu      sync.Mutex
	handler rt.Handler
	// crashed is atomic because the send path checks it without the node
	// lock, and crash/restart may flip it from another goroutine (the
	// chaos harness's mid-broadcast crash, the recovery path).
	crashed atomic.Bool
	// pending buffers messages that arrive before the handler is
	// installed (peers may finish their setup at different times;
	// reliable channels must not drop early traffic).
	pending []pendingMsg
	waiters []waiter // parked, in registration order
	// clock releases every d while a waiter is parked, until closed.
	clock  *time.Timer
	closed chan struct{}
}

type pendingMsg struct {
	src int
	msg rt.Message
}

// waiter is one parked WaitUntilThen, kept by value so that a release
// walks the predicates without a hop. wake (capacity 1, pooled once its
// caller has received) carries its one outcome, nil or rt.ErrCrashed.
type waiter struct {
	pred func() bool
	then func()
	wake chan error
}

var wakes = sync.Pool{New: func() any { return make(chan error, 1) }}

func (nd *node) now() rt.Ticks {
	return rt.Ticks(time.Since(nd.epoch) * time.Duration(rt.TicksPerD) / nd.d)
}

// observe reports one message event when an observer is installed, and
// only then names the message and sizes it: size is the frame payload a
// receiver read, or negative to measure msg by encoding it. msg is nil for
// a corrupt frame.
func (nd *node) observe(event string, src, dst int, msg rt.Message, size int) {
	if nd.obs == nil {
		return
	}
	kind := ""
	if msg != nil {
		kind = msg.Kind()
	}
	if size < 0 {
		size = wire.EncodedSize(msg)
	}
	nd.obs.OnMsg(rt.MsgEvent{T: nd.now(), Event: event, Src: src, Dst: dst, Kind: kind, Bytes: size})
}

// deliverBatch is both transports' one way into the handler: it runs a
// burst of same-source messages in one critical section, with one lock
// acquisition and one release for the whole batch instead of one each per
// message. Handlers in this model never block on waiters (they record
// state and return; predicates are evaluated only as a critical section
// ends), so running k handler calls back-to-back under the lock is
// indistinguishable from k single deliveries that happened to win the
// lock consecutively — an ordering the concurrent transport always
// permitted.
func (nd *node) deliverBatch(src int, msgs []rt.Message) {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	for _, msg := range msgs {
		if nd.crashed.Load() {
			break
		}
		if nd.handler == nil {
			nd.pending = append(nd.pending, pendingMsg{src: src, msg: msg})
			continue
		}
		nd.handler.HandleMessage(src, msg)
	}
	nd.release()
}

// SetHandler installs the node's message handler; messages that arrived
// earlier (peers finish setup at different times) are delivered to it
// immediately.
func (nd *node) SetHandler(h rt.Handler) {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	nd.handler = h
	for _, pm := range nd.pending {
		h.HandleMessage(pm.src, pm.msg)
	}
	nd.pending = nil
	nd.release()
}

// Runtime returns the node's rt.Runtime.
func (nd *node) Runtime() rt.Runtime { return (*nodeRuntime)(nd) }

// release ends every critical section: it fires each parked waiter whose
// predicate holds, in registration order — runs its then here, drops it,
// wakes its caller — and repeats until a pass fires nothing, since a then
// may make an earlier predicate true. Must hold mu.
func (nd *node) release() {
	for n := -1; n != len(nd.waiters); {
		n = len(nd.waiters)
		kept := 0
		for i, w := range nd.waiters {
			if !w.pred() {
				if kept != i {
					nd.waiters[kept] = w
				}
				kept++
				continue
			}
			w.then()
			w.wake <- nil
		}
		clear(nd.waiters[kept:])
		nd.waiters = nd.waiters[:kept]
	}
}

// tick is the clock's critical section; after Close it re-arms nothing.
func (nd *node) tick() {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	select {
	case <-nd.closed:
	default:
		if nd.release(); len(nd.waiters) > 0 {
			nd.clock.Reset(nd.d)
		}
	}
}

// Crash crash-stops the node: it stops sending and handling messages,
// parked waits fail with rt.ErrCrashed, and later waits fail at once. Its
// links stay up (peers need not tell a crashed node from a silent one).
func (nd *node) Crash() {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	nd.crashed.Store(true)
	for _, w := range nd.waiters {
		w.wake <- rt.ErrCrashed
	}
	nd.waiters = nil
}

// Restart brings a crashed node back with the recovered incarnation's
// handler (crash-recovery): it clears the crash flag and installs h in one
// critical section, so no message can reach the old handler after the node
// is back. Messages that arrived during the downtime were dropped (the
// model's crashed-receiver semantics); any buffered pre-install deliveries
// belonged to the old incarnation and are discarded with it. The links
// were never torn down, so channel ordering survives the downtime.
func (nd *node) Restart(h rt.Handler) {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	nd.crashed.Store(false)
	nd.handler = h
	nd.pending = nil
	nd.release()
}

// nodeRuntime is the one rt.Runtime of both transports: a node as the
// protocol running on it sees it.
type nodeRuntime node

var _ rt.Runtime = (*nodeRuntime)(nil)

func (r *nodeRuntime) ID() int       { return r.id }
func (r *nodeRuntime) N() int        { return r.n }
func (r *nodeRuntime) F() int        { return r.f }
func (r *nodeRuntime) Now() rt.Ticks { return (*node)(r).now() }
func (r *nodeRuntime) Crashed() bool { return r.crashed.Load() }

// Send hands msg to the transport's link toward dst; a crashed node sends
// nothing.
func (r *nodeRuntime) Send(dst int, msg rt.Message) {
	if r.crashed.Load() {
		return
	}
	(*node)(r).observe(rt.MsgSend, r.id, dst, msg, -1)
	r.enqueue(dst, msg)
}

func (r *nodeRuntime) Broadcast(msg rt.Message) {
	for dst := 0; dst < r.n; dst++ {
		r.Send(dst, msg)
	}
}

func (r *nodeRuntime) Atomic(fn func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	fn()
	(*node)(r).release()
}

// WaitUntilThen runs then at once if pred holds, and otherwise parks the
// caller until a release fires it or a crash fails it.
func (r *nodeRuntime) WaitUntilThen(_ string, pred func() bool, then func()) error {
	nd := (*node)(r)
	nd.mu.Lock()
	if nd.crashed.Load() {
		nd.mu.Unlock()
		return rt.ErrCrashed
	}
	if pred() {
		then()
		nd.release()
		nd.mu.Unlock()
		return nil
	}
	wake := wakes.Get().(chan error)
	if nd.waiters = append(nd.waiters, waiter{pred, then, wake}); len(nd.waiters) == 1 {
		if nd.clock == nil {
			nd.clock = time.AfterFunc(nd.d, nd.tick)
		} else {
			nd.clock.Reset(nd.d)
		}
	}
	nd.mu.Unlock()
	err := <-wake
	wakes.Put(wake)
	return err
}
