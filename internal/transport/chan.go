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
// links, a node's link to itself included. Both run the same node, hand
// protocols the same rt.Runtime and queue every sent message on the same
// link type, which grows with use; they differ only in what drains a link.
// A ChanNet link, and a TCP node's link to itself, is drained straight
// into the destination's handler, by reference as in the simulator; a TCP
// link to a peer is drained by that peer's send loop onto its socket.
// Atomicity of handlers and critical sections is provided by a per-node
// mutex; a blocked wait parks on the node's waiter list until the end of a
// critical section, or a once-per-D clock, finds it true.
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

// ChanNet is an in-process cluster connected by channel-backed links.
type ChanNet struct {
	d     time.Duration
	nodes []*node
	rng   *rand.Rand
	rngMu sync.Mutex
	wg    sync.WaitGroup
	done  chan struct{}
}

// timedMsg is a queued message and when it falls due (zero: at once).
type timedMsg struct {
	msg     rt.Message
	notBefo time.Time
}

// linkDepth bounds the messages queued, and not yet taken, on one link of
// either transport; Send panics past it (a receiver that far behind is a
// bug, not backpressure).
const linkDepth = 1 << 16

// link is one directed FIFO link from node src, the one outbound queue of
// both transports: it grows with use (an idle link holds no buffer), and
// one goroutine takes it whole — drain, or a TCP peer's send loop. A held
// link gives its drainer nothing: what is pushed meanwhile waits here, in
// order, and counts against linkDepth.
type link struct {
	src   int
	mu    sync.Mutex
	in    []timedMsg    // queued, oldest first
	held  bool          // take returns nothing while set
	depth atomic.Int32  // len(in), for the overflow check without the lock
	wake  chan struct{} // capacity 1: signalled after every push and release
}

func newLink(src int) *link { return &link{src: src, wake: make(chan struct{}, 1)} }

// push enqueues tm, reporting false when linkDepth messages already wait.
func (l *link) push(tm timedMsg) bool {
	if l.depth.Add(1) > linkDepth {
		l.depth.Add(-1)
		return false
	}
	l.mu.Lock()
	l.in = append(l.in, tm)
	l.mu.Unlock()
	l.signal()
	return true
}

func (l *link) signal() {
	select {
	case l.wake <- struct{}{}:
	default:
	}
}

// hold stops (on) or resumes (!on) the link's delivery and wakes the
// drainer: resumed, it takes everything queued since, in send order.
func (l *link) hold(on bool) {
	l.mu.Lock()
	l.held = on
	l.mu.Unlock()
	l.signal()
}

// take returns what is queued and reuses spent, the drainer's finished
// batch, as the new queue, so a link in steady state allocates nothing. A
// held link returns nothing and keeps its queue.
func (l *link) take(spent []timedMsg) []timedMsg {
	clear(spent)
	l.mu.Lock()
	if l.held {
		l.mu.Unlock()
		return spent[:0]
	}
	batch := l.in
	l.in = spent[:0]
	l.depth.Add(-int32(len(batch)))
	l.mu.Unlock()
	return batch
}

// drain delivers the link's messages to node dst in order, each no
// earlier than its notBefo, until done closes: it waits for the oldest
// message to fall due, then hands it and every later one already due (at
// most dispBatch) to deliverBatch in one critical section.
func (l *link) drain(done <-chan struct{}, dst *node) {
	var batch []timedMsg
	var due []rt.Message
	for {
		if batch = l.take(batch); len(batch) == 0 {
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
				dst.observe(rt.MsgDeliver, l.src, dst.id, batch[j].msg, -1)
				due = append(due, batch[j].msg)
				j++
			}
			dst.deliverBatch(l.src, due)
			clear(due)
			due = due[:0]
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
	c := &ChanNet{
		d:     cfg.D,
		nodes: make([]*node, cfg.N),
		rng:   rand.New(rand.NewSource(cfg.Seed)),
		done:  make(chan struct{}),
	}
	epoch := time.Now()
	for src := range c.nodes {
		nd := &node{id: src, n: cfg.N, f: cfg.F, d: cfg.D, epoch: epoch, obs: cfg.Observer, closed: c.done,
			out: make([]*link, cfg.N)}
		nd.stamp = func(dst int, msg rt.Message) timedMsg {
			if cfg.CopyThrough && wire.Marshalable(msg) {
				m, err := wire.Roundtrip(msg)
				if err != nil {
					panic(fmt.Sprintf("transport: copy-through %d->%d: %v", src, dst, err))
				}
				msg = m
			}
			return timedMsg{msg: msg, notBefo: time.Now().Add(c.delay())}
		}
		for dst := range nd.out {
			nd.out[dst] = newLink(src)
		}
		c.nodes[src] = nd
	}
	// One goroutine per (src,dst) link preserves FIFO while applying
	// per-message delays.
	for _, nd := range c.nodes {
		for dst, l := range nd.out {
			c.wg.Add(1)
			go func() {
				defer c.wg.Done()
				l.drain(c.done, c.nodes[dst])
			}()
		}
	}
	return c
}

// SetHandler installs node id's message handler; messages that arrived
// earlier are delivered to it immediately.
func (c *ChanNet) SetHandler(id int, h rt.Handler) { c.nodes[id].SetHandler(h) }

// Runtime returns node id's rt.Runtime.
func (c *ChanNet) Runtime(id int) rt.Runtime { return c.nodes[id].Runtime() }

// Crash crash-stops node id.
func (c *ChanNet) Crash(id int) { c.nodes[id].Crash() }

// Hold holds (on) or releases (!on) the link from src to dst: a held link
// delivers nothing, and a release delivers what waited, in send order,
// even if src crashed meanwhile.
func (c *ChanNet) Hold(src, dst int, on bool) { c.nodes[src].Hold(dst, on) }

// Restart brings crashed node id back with the recovered incarnation's
// handler (crash-recovery); its links were never torn down, so channel
// ordering survives the downtime.
func (c *ChanNet) Restart(id int, h rt.Handler) { c.nodes[id].Restart(h) }

// Close tears the cluster down.
func (c *ChanNet) Close() {
	close(c.done)
	c.wg.Wait()
	for _, nd := range c.nodes {
		nd.close()
	}
}

func (c *ChanNet) delay() time.Duration {
	c.rngMu.Lock()
	defer c.rngMu.Unlock()
	return time.Duration(c.rng.Int63n(int64(c.d))) + 1
}
