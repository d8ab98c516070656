// Package transport provides real-time implementations of the rt.Runtime
// interface, complementing the deterministic virtual-time simulator:
//
//   - ChanNet: in-process nodes connected by goroutine-backed FIFO
//     channels with injectable random delays (integration testing and the
//     examples);
//   - TCP: one node per process over internal/wire frames on TCP
//     (`aso node`), where the kernel's stream ordering provides FIFO.
//
// Both satisfy the paper's channel model: reliable FIFO point-to-point
// links. Atomicity of handlers and critical sections is provided by a
// per-node mutex; a blocked wait parks on the node's waiter list until the
// end of a critical section, or a once-per-D clock, finds it true.
package transport

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"mpsnap/internal/rt"
	"mpsnap/internal/wire"
)

// node is the shared mutex and waiter list of both transports.
type node struct {
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
	// clock releases every d while a waiter is parked, until Close.
	d      time.Duration
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

// setHandler installs the handler and flushes buffered deliveries.
func (nd *node) setHandler(h rt.Handler) {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	nd.handler = h
	for _, pm := range nd.pending {
		h.HandleMessage(pm.src, pm.msg)
	}
	nd.pending = nil
	nd.release()
}

func (nd *node) atomic(fn func()) {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	fn()
	nd.release()
}

// waitUntilThen runs then at once if pred holds, and otherwise parks the
// caller until a release fires it or a crash fails it.
func (nd *node) waitUntilThen(pred func() bool, then func()) error {
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

// crash fails every parked waiter; later waits fail at once.
func (nd *node) crash() {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	nd.crashed.Store(true)
	for _, w := range nd.waiters {
		w.wake <- rt.ErrCrashed
	}
	nd.waiters = nil
}

// restart clears the crash flag and installs the recovered incarnation's
// handler in one critical section, so no message can reach the old
// handler after the node is back. Messages that arrived during the
// downtime were dropped (the model's crashed-receiver semantics); any
// buffered pre-install deliveries belonged to the old incarnation and are
// discarded with it.
func (nd *node) restart(h rt.Handler) {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	nd.crashed.Store(false)
	nd.handler = h
	nd.pending = nil
	nd.release()
}

// ChanNet is an in-process cluster connected by channel-backed links.
type ChanNet struct {
	n, f        int
	d           time.Duration
	copyThrough bool
	obs         rt.Observer
	nodes       []*chanNode
	rng         *rand.Rand
	rngMu       sync.Mutex
	start       time.Time
	wg          sync.WaitGroup
	done        chan struct{}
}

type chanNode struct {
	node
	net *ChanNet
	id  int
	out []*link // per-destination FIFO queues
}

type timedMsg struct {
	src     int
	msg     rt.Message
	notBefo time.Time
}

// linkDepth bounds the messages queued on one directed link; Send panics
// past it (a receiver that far behind is a bug, not backpressure).
const linkDepth = 1 << 16

// link is one directed FIFO link: a queue that grows with use (an idle
// link holds no buffer) drained by one delivery goroutine.
type link struct {
	mu    sync.Mutex
	in    []timedMsg    // queued, oldest first; the drainer takes it whole
	depth atomic.Int32  // queued and not yet taken for delivery, for the overflow check
	wake  chan struct{} // capacity 1: signalled after every push
}

// push enqueues tm, reporting false when linkDepth messages already wait
// behind the one being delivered.
func (l *link) push(tm timedMsg) bool {
	if l.depth.Add(1) > linkDepth {
		l.depth.Add(-1)
		return false
	}
	l.mu.Lock()
	l.in = append(l.in, tm)
	l.mu.Unlock()
	select {
	case l.wake <- struct{}{}:
	default:
	}
	return true
}

// drain delivers the link's messages to node dst in order, each no
// earlier than its notBefo, until the net closes: it waits for the oldest
// message to fall due, then hands it and every later one already due (at
// most dispBatch) to deliverBatch in one critical section. It swaps the
// queue for the batch it just finished, so a link in steady state
// allocates nothing.
func (l *link) drain(net *ChanNet, dst int) {
	done := net.done
	var batch []timedMsg
	var due []rt.Message
	for {
		l.mu.Lock()
		batch, l.in = l.in, batch[:0]
		l.mu.Unlock()
		if len(batch) == 0 {
			select {
			case <-l.wake:
				continue
			case <-done:
				return
			}
		}
		for i := 0; i < len(batch); {
			if wait := time.Until(batch[i].notBefo); wait > 0 {
				select {
				case <-time.After(wait):
				case <-done:
					return
				}
			} else {
				select {
				case <-done:
					return // Close must not wait out a backlog
				default:
				}
			}
			now := time.Now()
			j := i
			for j < len(batch) && len(due) < dispBatch && !batch[j].notBefo.After(now) {
				net.observeMsg(rt.MsgDeliver, batch[j].src, dst, batch[j].msg)
				due = append(due, batch[j].msg)
				j++
			}
			l.depth.Add(-int32(j - i))
			net.nodes[dst].deliverBatch(batch[i].src, due)
			clear(due)
			due = due[:0]
			clear(batch[i:j])
			i = j
		}
	}
}

// ChanConfig parameterizes a ChanNet.
type ChanConfig struct {
	// N nodes with resilience bound F.
	N, F int
	// D is the real-time duration standing in for the maximum message
	// delay (default 2ms). Each message is delayed uniformly in (0, D],
	// and parked wait predicates are re-evaluated once per D.
	D time.Duration
	// Seed drives the delay randomness.
	Seed int64
	// CopyThrough round-trips every sent message through the internal/wire
	// codec, so in-process tests exercise exactly the encodings a TCP
	// deployment would (and share no memory between sender and receiver).
	// A codec failure panics: it is a registration or canonicality bug.
	CopyThrough bool
	// Observer, if set, receives a rt.MsgEvent for every send and
	// delivery. It is called concurrently from sender goroutines and the
	// per-link delivery goroutines, so it must be concurrency-safe and
	// non-blocking (internal/obs implementations are).
	Observer rt.Observer
}

// NewChanNet builds the cluster. Set handlers with SetHandler before
// sending traffic; call Close when done.
func NewChanNet(cfg ChanConfig) *ChanNet {
	if cfg.D == 0 {
		cfg.D = 2 * time.Millisecond
	}
	net := &ChanNet{
		n:           cfg.N,
		f:           cfg.F,
		d:           cfg.D,
		copyThrough: cfg.CopyThrough,
		obs:         cfg.Observer,
		rng:         rand.New(rand.NewSource(cfg.Seed)),
		start:       time.Now(),
		done:        make(chan struct{}),
	}
	net.nodes = make([]*chanNode, cfg.N)
	for i := 0; i < cfg.N; i++ {
		net.nodes[i] = &chanNode{node: node{d: cfg.D, closed: net.done}, net: net, id: i, out: make([]*link, cfg.N)}
	}
	// One goroutine per (src,dst) link preserves FIFO while applying
	// per-message delays.
	for src := 0; src < cfg.N; src++ {
		for dst := 0; dst < cfg.N; dst++ {
			l := &link{wake: make(chan struct{}, 1)}
			net.nodes[src].out[dst] = l
			net.wg.Add(1)
			go func() {
				defer net.wg.Done()
				l.drain(net, dst)
			}()
		}
	}
	return net
}

// SetHandler installs node id's message handler; messages that arrived
// earlier are delivered to it immediately.
func (c *ChanNet) SetHandler(id int, h rt.Handler) { c.nodes[id].setHandler(h) }

// Runtime returns node id's rt.Runtime.
func (c *ChanNet) Runtime(id int) rt.Runtime { return &chanRuntime{net: c, nd: c.nodes[id]} }

// Crash crash-stops node id.
func (c *ChanNet) Crash(id int) { c.nodes[id].crash() }

// Restart brings a crashed node back with the recovered incarnation's
// handler (crash-recovery). The node resumes receiving and sending; its
// per-link FIFO queues were never torn down, so channel ordering survives
// the downtime.
func (c *ChanNet) Restart(id int, h rt.Handler) { c.nodes[id].restart(h) }

// Close tears the cluster down.
func (c *ChanNet) Close() {
	close(c.done)
	c.wg.Wait()
}

// nowTicks is wall time scaled into ticks, matching chanRuntime.Now.
func (c *ChanNet) nowTicks() rt.Ticks {
	return rt.Ticks(time.Since(c.start) * time.Duration(rt.TicksPerD) / c.d)
}

func (c *ChanNet) observeMsg(event string, src, dst int, msg rt.Message) {
	if c.obs != nil {
		c.obs.OnMsg(rt.MsgEvent{
			T: c.nowTicks(), Event: event, Src: src, Dst: dst,
			Kind: msg.Kind(), Bytes: wire.EncodedSize(msg),
		})
	}
}

func (c *ChanNet) delay() time.Duration {
	c.rngMu.Lock()
	defer c.rngMu.Unlock()
	return time.Duration(c.rng.Int63n(int64(c.d))) + 1
}

type chanRuntime struct {
	net *ChanNet
	nd  *chanNode
}

var _ rt.Runtime = (*chanRuntime)(nil)

func (r *chanRuntime) ID() int { return r.nd.id }
func (r *chanRuntime) N() int  { return r.net.n }
func (r *chanRuntime) F() int  { return r.net.f }

func (r *chanRuntime) Send(dst int, msg rt.Message) {
	if r.nd.crashed.Load() { // crashed nodes stop sending
		return
	}
	if r.net.copyThrough && wire.Marshalable(msg) {
		m, err := wire.Roundtrip(msg)
		if err != nil {
			panic(fmt.Sprintf("transport: copy-through %d->%d: %v", r.nd.id, dst, err))
		}
		msg = m
	}
	tm := timedMsg{src: r.nd.id, msg: msg, notBefo: time.Now().Add(r.net.delay())}
	r.net.observeMsg(rt.MsgSend, r.nd.id, dst, msg)
	if !r.nd.out[dst].push(tm) {
		panic(fmt.Sprintf("transport: link %d->%d overflow", r.nd.id, dst))
	}
}

func (r *chanRuntime) Broadcast(msg rt.Message) {
	for dst := 0; dst < r.net.n; dst++ {
		r.Send(dst, msg)
	}
}

func (r *chanRuntime) Atomic(fn func()) { r.nd.atomic(fn) }

func (r *chanRuntime) WaitUntilThen(label string, pred func() bool, then func()) error {
	return r.nd.waitUntilThen(pred, then)
}

func (r *chanRuntime) Now() rt.Ticks { return r.net.nowTicks() }

func (r *chanRuntime) Crashed() bool { return r.nd.crashed.Load() }
