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
// links. Both run the same node and hand protocols the same rt.Runtime;
// they differ only in how a sent message reaches its peer. Atomicity of
// handlers and critical sections is provided by a per-node mutex; a
// blocked wait parks on the node's waiter list until the end of a critical
// section, or a once-per-D clock, finds it true.
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
func (l *link) drain(done <-chan struct{}, dst *node) {
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
				dst.observe(rt.MsgDeliver, batch[j].src, dst.id, batch[j].msg, -1)
				due = append(due, batch[j].msg)
				j++
			}
			l.depth.Add(-int32(j - i))
			dst.deliverBatch(batch[i].src, due)
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
	c := &ChanNet{
		d:     cfg.D,
		nodes: make([]*node, cfg.N),
		rng:   rand.New(rand.NewSource(cfg.Seed)),
		done:  make(chan struct{}),
	}
	epoch := time.Now()
	links := make([][]*link, cfg.N) // links[src][dst]
	for src := range c.nodes {
		out := make([]*link, cfg.N)
		for dst := range out {
			out[dst] = &link{wake: make(chan struct{}, 1)}
		}
		links[src] = out
		c.nodes[src] = &node{id: src, n: cfg.N, f: cfg.F, d: cfg.D, epoch: epoch, obs: cfg.Observer, closed: c.done,
			enqueue: func(dst int, msg rt.Message) {
				if cfg.CopyThrough && wire.Marshalable(msg) {
					m, err := wire.Roundtrip(msg)
					if err != nil {
						panic(fmt.Sprintf("transport: copy-through %d->%d: %v", src, dst, err))
					}
					msg = m
				}
				if !out[dst].push(timedMsg{src: src, msg: msg, notBefo: time.Now().Add(c.delay())}) {
					panic(fmt.Sprintf("transport: link %d->%d overflow", src, dst))
				}
			}}
	}
	// One goroutine per (src,dst) link preserves FIFO while applying
	// per-message delays.
	for _, out := range links {
		for dst, l := range out {
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

// Restart brings crashed node id back with the recovered incarnation's
// handler (crash-recovery); its links were never torn down, so channel
// ordering survives the downtime.
func (c *ChanNet) Restart(id int, h rt.Handler) { c.nodes[id].Restart(h) }

// Close tears the cluster down.
func (c *ChanNet) Close() {
	close(c.done)
	c.wg.Wait()
}

func (c *ChanNet) delay() time.Duration {
	c.rngMu.Lock()
	defer c.rngMu.Unlock()
	return time.Duration(c.rng.Int63n(int64(c.d))) + 1
}
