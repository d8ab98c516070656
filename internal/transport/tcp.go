package transport

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"mpsnap/internal/rt"
	"mpsnap/internal/wire"
)

// Hello is the per-connection handshake: the first frame on every
// connection carries the dialer's node ID, which is what attributes all
// subsequent frames on that connection to a source (frames themselves
// carry no source field).
type Hello struct{ ID int }

// Kind implements rt.Message.
func (Hello) Kind() string { return "transportHello" }

// Wire tag 2 (see DESIGN.md, wire format section).
func init() {
	wire.Register(wire.Codec{
		Tag: 2, Proto: Hello{},
		Encode: func(b *wire.Buffer, m rt.Message) { b.PutInt(m.(Hello).ID) },
		Decode: func(d *wire.Decoder) (rt.Message, error) { return Hello{ID: d.Int()}, d.Err() },
		Gen:    func(rng *rand.Rand) rt.Message { return Hello{ID: rng.Intn(64)} },
	})
}

// TCPConfig parameterizes one TCP node.
type TCPConfig struct {
	// ID is this node's index into Addrs.
	ID int
	// Addrs lists every node's listen address ("host:port"), index =
	// node ID. len(Addrs) = n.
	Addrs []string
	// F is the resilience bound.
	F int
	// D is the real-time duration reported as one rt.TicksPerD when
	// converting wall-clock time to ticks (default 10ms). It does not
	// delay messages — real network latency applies.
	D time.Duration
	// DialTimeout bounds the total time spent connecting to each peer
	// (default 10s).
	DialTimeout time.Duration
	// MaxFrame caps the wire frame size on both encode and decode
	// (default wire.DefaultMaxFrame). A corrupt length prefix can never
	// allocate more than this.
	MaxFrame int
	// OnError, if set, is invoked (from a transport goroutine) whenever a
	// peer connection is dropped because its byte stream failed to decode
	// — a framing error, an unknown tag, a malformed body. The peer index
	// is -1 if the connection failed before identifying itself. Only that
	// connection is affected; the rest of the mesh keeps running. When
	// nil, errors are recorded and retrievable via Errors.
	OnError func(peer int, err error)
	// Listener, if set, is used instead of listening on Addrs[ID]
	// (lets tests bind :0 first and distribute the real addresses).
	Listener net.Listener
	// Epoch, if set, is the time-zero Now() measures ticks from instead
	// of the node's construction instant. Deployments whose protocol
	// compares timestamps across nodes (e.g. cluster cut frontiers) must
	// share one epoch, or per-node construction skew shows up as clock
	// skew; for nodes in one process, pass the same time.Time to all.
	Epoch time.Time
	// Observer, if set, receives a rt.MsgEvent for every outbound send,
	// inbound delivery, and corrupt inbound stream. It is called from
	// client and receive goroutines concurrently, so it must be
	// concurrency-safe and non-blocking (internal/obs implementations
	// are).
	Observer rt.Observer
}

// TCPNode is a node of a TCP-connected deployment. TCP's in-order
// delivery provides the FIFO channel property; reliability holds as long
// as connections stay up. When a peer's connection dies, the send loop
// redials with backoff and resumes on the fresh connection: frames the
// send loop had batched but not yet written to a socket are resent in
// order, so a transient reset between two live processes does not open a
// FIFO gap; frames already written to the dead socket are the in-flight
// loss of the crash model — the crashed-receiver semantics crash-recovery
// deployments (`aso node -wal`) repair on rejoin — but the mesh heals, so
// a restarted process receives the replies it is owed. The transport
// never re-delivers frames it knows a socket accepted. SetHandler,
// Runtime, Crash and Restart are the shared node's: an in-process Restart
// keeps the connections up, as a ChanNet restart keeps its links.
type TCPNode struct {
	node
	cfg TCPConfig

	listener net.Listener
	hello    []byte // this node's encoded handshake frame

	outs []chan rt.Message // per-peer outbound queues

	// stale[peer] is set when peer's inbound stream ends: the process
	// behind it is gone, so our outbound connection is doomed even though
	// the kernel may still accept a write or two. The send loop checks it
	// before each frame and redials first, instead of losing the frame to
	// a dead socket.
	stale []atomic.Bool

	connsMu sync.Mutex
	conns   []net.Conn

	acceptedMu sync.Mutex
	accepted   []net.Conn

	errMu       sync.Mutex
	errs        []error // the first maxRecordedErrs errors, when no OnError hook is set
	errsDropped int     // how many more were counted but not kept

	wg sync.WaitGroup
}

// NewTCPNode starts listening, connects to all peers, and returns once
// the full mesh is up. Peers must be started within DialTimeout of each
// other.
func NewTCPNode(cfg TCPConfig) (*TCPNode, error) {
	if cfg.D == 0 {
		cfg.D = 10 * time.Millisecond
	}
	if cfg.DialTimeout == 0 {
		cfg.DialTimeout = 10 * time.Second
	}
	n := len(cfg.Addrs)
	if cfg.ID < 0 || cfg.ID >= n {
		return nil, fmt.Errorf("transport: id %d out of range", cfg.ID)
	}
	epoch := cfg.Epoch
	if epoch.IsZero() {
		epoch = time.Now()
	}
	hello, err := wire.MarshalFrame(Hello{ID: cfg.ID}, cfg.MaxFrame)
	if err != nil {
		return nil, fmt.Errorf("transport: encode handshake: %w", err)
	}
	t := &TCPNode{
		node:  node{id: cfg.ID, n: n, f: cfg.F, d: cfg.D, epoch: epoch, obs: cfg.Observer, closed: make(chan struct{})},
		cfg:   cfg,
		hello: hello,
		outs:  make([]chan rt.Message, n),
		stale: make([]atomic.Bool, n),
		conns: make([]net.Conn, n),
	}
	t.enqueue = t.push
	ln := cfg.Listener
	if ln == nil {
		ln, err = net.Listen("tcp", cfg.Addrs[cfg.ID])
		if err != nil {
			return nil, fmt.Errorf("transport: listen %s: %w", cfg.Addrs[cfg.ID], err)
		}
	}
	t.listener = ln

	// Accept inbound connections: each peer dials us once and sends a
	// hello frame; we then read frames from it until the stream ends or
	// fails to decode.
	t.wg.Add(1)
	go t.acceptLoop()

	// Connect to every peer (including ourselves, for uniform
	// self-delivery through the loopback). Peers of a cluster may come up
	// in any order, so early connection refusals are expected, not fatal;
	// only a peer still unreachable once the whole budget is spent is an
	// error.
	deadline := time.Now().Add(cfg.DialTimeout)
	for peer := 0; peer < n; peer++ {
		conn, err := t.connect(peer, deadline)
		if err != nil {
			t.Close()
			return nil, fmt.Errorf("transport: node %d unreachable at %s (retried with backoff for %v): %w",
				peer, cfg.Addrs[peer], cfg.DialTimeout, err)
		}
		out := make(chan rt.Message, 1<<14)
		t.outs[peer] = out
		t.wg.Add(1)
		go t.sendLoop(peer, conn, out)
	}
	return t, nil
}

// connect dials peer and performs the Hello handshake on the fresh
// connection, retrying with capped exponential backoff (50ms doubling to
// 2s) until it succeeds, the deadline passes (the zero deadline never
// does) or the node shuts down. It serves the first connection and every
// reconnection; the connection is recorded in conns, where Close reaches
// it, and the peer's stale flag is cleared.
func (t *TCPNode) connect(peer int, deadline time.Time) (net.Conn, error) {
	backoff := 50 * time.Millisecond
	const maxBackoff = 2 * time.Second
	for {
		conn, err := net.DialTimeout("tcp", t.cfg.Addrs[peer], time.Second)
		if err == nil {
			if _, err = conn.Write(t.hello); err == nil {
				t.connsMu.Lock()
				t.conns[peer] = conn
				t.connsMu.Unlock()
				t.stale[peer].Store(false)
				select {
				case <-t.closed:
					// Close may already have walked conns; make sure the
					// connection cannot outlive the node.
					conn.Close()
					return nil, net.ErrClosed
				default:
				}
				return conn, nil
			}
			conn.Close()
		}
		sleep := backoff
		if !deadline.IsZero() {
			rem := time.Until(deadline)
			if rem <= 0 {
				return nil, err
			}
			sleep = min(sleep, rem)
		}
		select {
		case <-t.closed:
			return nil, net.ErrClosed
		case <-time.After(sleep):
		}
		backoff = min(2*backoff, maxBackoff)
	}
}

func (t *TCPNode) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.listener.Accept()
		if err != nil {
			return // listener closed
		}
		t.acceptedMu.Lock()
		t.accepted = append(t.accepted, conn)
		t.acceptedMu.Unlock()
		select {
		case <-t.closed:
			// Accepted while Close was running, registered after its sweep
			// of t.accepted: nobody else would close it, and Close waits
			// for the recvLoop below, which waits for the peer.
			conn.Close()
		default:
		}
		t.wg.Add(1)
		go t.recvLoop(conn)
	}
}

// recvBufSize is the inbound read buffer: large enough that a coalesced
// burst of frames costs one read syscall.
const recvBufSize = 64 << 10

// recvLoop reads frames from one inbound connection until the stream
// ends. A clean close (or a network-level failure) ends the loop
// silently, matching crash-stop semantics; a stream that stops making
// sense as frames — bad version, oversized length, truncated payload,
// unknown tag, malformed body — closes only this connection and surfaces
// a descriptive error through the error hook.
//
// The goroutine that reads a message delivers it, under the receive side's
// twin of sendLoop's rule — take what was read: decoded messages gather in
// a batch that goes to the handler in one critical section as soon as the
// next frame is not already whole in the read buffer (reading it could
// block) or the batch reaches dispBatch. Frames decoded before a bad one
// are delivered before the connection is dropped. While the handler runs
// nothing reads this socket, so backpressure is TCP flow control alone.
func (t *TCPNode) recvLoop(conn net.Conn) {
	defer t.wg.Done()
	defer conn.Close()
	r := bufio.NewReaderSize(conn, recvBufSize)
	var buf []byte

	// Handshake: the first frame must be a Hello naming the peer.
	payload, err := wire.ReadFrame(r, buf, t.cfg.MaxFrame)
	if err != nil {
		t.recvError(-1, conn, err, false)
		return
	}
	buf = payload
	hm, err := wire.Unmarshal(payload)
	if err != nil {
		t.observe(rt.MsgCorrupt, -1, t.id, nil, len(payload))
		t.recvError(-1, conn, err, true)
		return
	}
	h, ok := hm.(Hello)
	if !ok || h.ID < 0 || h.ID >= len(t.cfg.Addrs) {
		t.recvError(-1, conn, fmt.Errorf("transport: bad handshake %q from %s", hm.Kind(), conn.RemoteAddr()), true)
		return
	}
	src := h.ID

	batch := make([]rt.Message, 0, dispBatch)
	deliver := func() {
		if len(batch) > 0 {
			t.deliverBatch(src, batch)
			clear(batch)
			batch = batch[:0]
		}
	}
	for {
		payload, err := wire.ReadFrame(r, buf, t.cfg.MaxFrame)
		if err != nil {
			deliver()
			// The stream ended: the process behind it is gone (crash or
			// restart), so our outbound connection to src is doomed too —
			// flag it so the send loop redials before trusting it with
			// another frame.
			t.stale[src].Store(true)
			t.recvError(src, conn, err, false)
			return
		}
		buf = payload
		msg, err := wire.Unmarshal(payload)
		if err != nil {
			deliver()
			t.observe(rt.MsgCorrupt, src, t.id, nil, len(payload))
			t.recvError(src, conn, err, true)
			return
		}
		// Decoders copy all byte fields, so reusing buf for the next
		// frame cannot mutate a batched message.
		t.observe(rt.MsgDeliver, src, t.id, msg, len(payload))
		batch = append(batch, msg)
		if len(batch) == dispBatch || !wire.FrameBuffered(r) {
			deliver()
		}
	}
}

// dispBatch caps how many messages one critical section hands to the
// handler, so a source streaming a backlog cannot hold the node lock
// against the other sources and the node's waiters for longer.
const dispBatch = 256

// recvError records or reports why a connection is being dropped. decode
// marks errors past the framing layer, which are always wire errors;
// framing-layer errors are surfaced only when the bytes were wrong
// (version, length, truncation), not when the network ended the stream
// (EOF, reset, local shutdown) — a dead peer is the crash model at work,
// not a protocol violation.
func (t *TCPNode) recvError(peer int, conn net.Conn, err error, decode bool) {
	if !decode {
		if errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) {
			return
		}
		if !errors.Is(err, wire.ErrBadVersion) && !errors.Is(err, wire.ErrFrameTooLarge) && !errors.Is(err, wire.ErrShortFrame) {
			return // network-level failure, not a wire error
		}
		if errors.Is(err, wire.ErrShortFrame) {
			// A frame cut short by a vanished peer is a network event;
			// only a stream that keeps flowing with wrong bytes is not.
			var ne net.Error
			if errors.As(err, &ne) || errors.Is(err, io.ErrUnexpectedEOF) {
				return
			}
		}
	}
	t.reportError(peer, fmt.Errorf("transport: connection from peer %d (%s) dropped: %w", peer, conn.RemoteAddr(), err))
}

// reportError surfaces err through the hook, or records it when no hook
// is installed. Errors racing with shutdown are discarded.
func (t *TCPNode) reportError(peer int, err error) {
	select {
	case <-t.closed:
		return // shutdown races are not peer errors
	default:
	}
	if t.cfg.OnError != nil {
		t.cfg.OnError(peer, err)
		return
	}
	t.errMu.Lock()
	if len(t.errs) < maxRecordedErrs {
		t.errs = append(t.errs, err)
	} else {
		t.errsDropped++
	}
	t.errMu.Unlock()
}

// maxRecordedErrs bounds the fallback error record: a corrupt or hostile
// peer can redial and fail forever, and nobody may ever call Errors.
const maxRecordedErrs = 64

// Errors returns the decode errors recorded so far (when no OnError hook
// is installed): the first maxRecordedErrs of them, then one error
// counting the rest.
func (t *TCPNode) Errors() []error {
	t.errMu.Lock()
	defer t.errMu.Unlock()
	errs := append([]error(nil), t.errs...)
	if t.errsDropped > 0 {
		errs = append(errs, fmt.Errorf("transport: %d further errors not recorded", t.errsDropped))
	}
	return errs
}

// maxSendBatch caps the pending (encoded, unwritten) buffer of one send
// loop: once it is reached the batch is flushed even though more frames
// are queued, so a slow socket or a deep queue cannot grow the buffer —
// and the unit a redial must resend — without bound. A single oversized
// frame can still exceed the cap by itself (frames are never split), so
// the hard bound is maxSendBatch plus one frame.
const maxSendBatch = 64 << 10

// sendLoop encodes and writes frames for one peer under the data path's
// one batching rule: take what is queued, never wait for more. It blocks
// for one message, encodes everything else already queued into the
// pending batch (cut at maxSendBatch), and writes as soon as it sees the
// queue empty — so a burst coalesces into one write syscall, a backlog
// into 64 KB writes, and a solitary frame leaves at once.
//
// A write failure (or a stale flag raised by the receive side) means the
// connection died; the loop reconnects with backoff and resends the WHOLE
// unwritten batch on the fresh connection — the buffer is cleared only
// after a successful write, so a transient connection reset between two
// live processes cannot silently drop frames that were batched but never
// handed to a socket, which would open a FIFO gap the protocol's
// reliable-channel assumption does not tolerate. Frames already written
// before the failure are the in-flight loss of the crash model, repaired
// by the rejoin path when the peer recovers with a WAL; without the
// reconnect a restarted process would never again receive this node's
// messages and its first operation would starve awaiting a quorum.
func (t *TCPNode) sendLoop(peer int, conn net.Conn, out <-chan rt.Message) {
	defer t.wg.Done()
	var body wire.Buffer
	// pending holds encoded frames not yet accepted by a socket write.
	var pending []byte
	// encode appends msg as one frame to pending. Encode failures are
	// local programming errors (unregistered type, oversized frame); they
	// are surfaced but must not tear down the connection.
	encode := func(msg rt.Message) {
		body.Reset()
		if err := wire.AppendMessage(&body, msg); err != nil {
			t.reportError(peer, fmt.Errorf("transport: encode to node %d: %w", peer, err))
			return
		}
		p, err := wire.AppendFrame(pending, body.Bytes(), t.cfg.MaxFrame)
		if err != nil {
			t.reportError(peer, fmt.Errorf("transport: encode to node %d: %w", peer, err))
			return
		}
		pending = p
	}
	for {
		select {
		case <-t.closed:
			return
		case msg := <-out:
			encode(msg)
		}
	gather:
		for len(pending) < maxSendBatch {
			select {
			case m := <-out:
				encode(m)
			default:
				break gather
			}
		}
		if len(pending) == 0 {
			continue // every gathered frame failed to encode
		}
		for {
			// A raised stale flag means the peer's inbound stream ended
			// since the last batch: the kernel would accept this write and
			// drop it on the floor, so it counts as a failed one.
			if !t.stale[peer].CompareAndSwap(true, false) {
				if _, err := conn.Write(pending); err == nil {
					break
				}
			}
			conn.Close()
			var err error
			if conn, err = t.connect(peer, time.Time{}); err != nil {
				return // node shut down while reconnecting
			}
		}
		pending = pending[:0]
	}
}

// Addr is the node's actual listen address (useful when the config bound
// port 0).
func (t *TCPNode) Addr() string { return t.listener.Addr().String() }

// Close shuts the node down.
func (t *TCPNode) Close() {
	select {
	case <-t.closed:
		return
	default:
	}
	close(t.closed)
	if t.listener != nil {
		t.listener.Close()
	}
	t.connsMu.Lock()
	for _, c := range t.conns {
		if c != nil {
			c.Close()
		}
	}
	t.connsMu.Unlock()
	t.acceptedMu.Lock()
	for _, c := range t.accepted {
		c.Close()
	}
	t.acceptedMu.Unlock()
	t.wg.Wait()
}

// push hands msg to peer dst's send loop. The queue is bounded; a full one
// is a bug, not backpressure.
func (t *TCPNode) push(dst int, msg rt.Message) {
	out := t.outs[dst]
	if out == nil {
		return
	}
	select {
	case out <- msg:
	default:
		panic(fmt.Sprintf("transport: outbound queue to node %d overflow", dst))
	}
}
