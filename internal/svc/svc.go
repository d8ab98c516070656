// Package svc is the concurrent snapshot service layer: it sits between
// many client threads and ONE protocol instance per node, which the
// paper's model (one sequential client thread per node, Section II-A)
// otherwise bakes into the public API.
//
// A Service owns a per-node request queue and a single worker thread that
// drives the underlying object. The worker follows the data path's one
// batching rule (DESIGN §13): block for one request, take everything
// already queued — MaxPending bounds the queue, so that is the cap — and
// serve it. Concurrency is turned into amortization exactly the way the
// paper's O(D) amortized bound intends:
//
//   - UPDATE coalescing: all UPDATEs pending at the start of a worker
//     cycle commit through one protocol UPDATE (a true protocol batch via
//     engine.Batcher when the object implements it, otherwise
//     last-value-wins); every caller unblocks when the batch containing
//     its value commits.
//   - SCAN sharing: all SCANs pending at the start of a cycle are answered
//     by one in-flight protocol SCAN. Only waiters that arrived before the
//     scan was issued may share its result — a later arrival must not
//     receive a snapshot whose linearization point could precede its own
//     invocation.
//
// Batching merges only operations that are concurrent in real time (they
// are all pending simultaneously), so linearizability is preserved: the
// members of an update batch are linearized consecutively at the batch's
// commit point, in arrival order, and a shared scan's linearization point
// lies inside every sharer's interval.
//
// Two serving modes cover the two consistency levels of the repository:
//
//   - ModeAtomic (linearizable objects): within a cycle the worker is free
//     to reorder — one batched UPDATE, then one shared SCAN. Reordering
//     concurrent operations is exactly what linearizability permits.
//   - ModeSequential (SSO): arrival order is preserved; the queue is
//     served as maximal runs of same-kind requests (each update run is one
//     protocol batch, each scan run shares one protocol scan). This keeps
//     the per-node program order that sequential consistency — and the
//     checker's (S2)/(S3) conditions — are defined over.
//
// The queue is bounded: when MaxPending requests are waiting, PolicyBlock
// (default) applies backpressure by blocking the caller until the worker
// drains, while PolicyReject fails fast with ErrOverloaded. Close drains:
// already-admitted requests are still served, new ones get ErrClosed, and
// Serve returns once the queue is empty.
//
// A request can also enter from inside the node's atomicity domain — a
// message handler, which must not block: AdmitUpdate/AdmitScan queue it
// with a completion hook the worker runs when it resolves the request, and
// refuse at once when the queue is full, whatever the policy.
// internal/cluster admits routed requests this way, so a node needs no
// thread besides its shards' workers.
package svc

import (
	"errors"
	"fmt"

	"mpsnap/internal/engine"
	"mpsnap/internal/rt"
	"mpsnap/internal/segment"
)

// Object is the client face of a snapshot object (EQ-ASO, SSO, Byz-ASO
// and all baselines implement it).
type Object = segment.Object

// Mode selects the worker's serving discipline.
type Mode int

// Serving modes.
const (
	// ModeAtomic reorders within a cycle (updates batch, scans share).
	// Sound for linearizable objects: all reordered ops are concurrent.
	ModeAtomic Mode = iota
	// ModeSequential preserves arrival order (maximal same-kind runs),
	// as required for the SSO's per-node sequential consistency.
	ModeSequential
)

// Policy selects the backpressure behaviour of a full queue.
type Policy int

// Backpressure policies.
const (
	// PolicyBlock parks the caller until the queue has room.
	PolicyBlock Policy = iota
	// PolicyReject fails fast with ErrOverloaded.
	PolicyReject
)

// DefaultMaxPending is the queue bound when Options.MaxPending is 0.
const DefaultMaxPending = 4096

// ErrOverloaded is returned under PolicyReject when the queue is full.
var ErrOverloaded = errors.New("svc: queue full (overloaded)")

// ErrClosed is returned for requests arriving after Close.
var ErrClosed = errors.New("svc: service closed")

// Options parameterizes a Service.
type Options struct {
	// Mode is the serving discipline (default ModeAtomic). Use
	// ModeSequential for SSO-backed services.
	Mode Mode
	// MaxPending bounds the queue (default DefaultMaxPending).
	MaxPending int
	// Policy is the full-queue behaviour (default PolicyBlock).
	Policy Policy
	// Serialize disables coalescing and sharing: the worker serves one
	// request per protocol operation. This is the one-op-at-a-time
	// baseline the batched modes are benchmarked against.
	Serialize bool
	// Observer, if set, receives "svc.update"/"svc.scan" operation
	// events: start at admission (the request's position in the serving
	// order is fixed), end when the worker resolves it. The measured
	// latency therefore includes queueing — the client-visible number —
	// whereas the underlying object's own observer (installed separately)
	// measures bare protocol latency. Must be concurrency-safe and
	// non-blocking.
	Observer rt.Observer
	// AdaptiveWindow and DirectWait are inert: the frozen benchmark/
	// module sets them (ROADMAP item 1 deletes them).
	AdaptiveWindow, DirectWait bool
}

// Stats counts a service's activity.
type Stats struct {
	// Updates / Scans are admitted client operations.
	Updates, Scans int64
	// Rejected counts full-queue refusals (PolicyReject, and AdmitUpdate/
	// AdmitScan under either policy).
	Rejected int64
	// ProtoUpdates / ProtoScans are protocol operations issued by the
	// worker; amortization is the ratio of client ops to protocol ops.
	ProtoUpdates, ProtoScans int64
	// MaxBatch is the largest update batch committed at once.
	MaxBatch int
	// WindowGrows / WindowShrinks are inert, always zero: the frozen
	// benchmark/ module reads them (ROADMAP item 1 deletes them).
	WindowGrows, WindowShrinks int64
}

type opKind int

const (
	opUpdate opKind = iota
	opScan
)

// request is one queued client operation; done/err/snap are written by the
// worker inside the node's atomicity domain and read by the blocked caller.
// A client thread's request lives in its Ticket; a handler's is allocated
// alone, in the 112 B malloc size class with one word to spare.
type request struct {
	kind    opKind
	payload []byte
	done    bool
	err     error
	snap    [][]byte
	// then, on a request admitted by AdmitUpdate/AdmitScan, runs once at
	// resolution, in the critical section that resolves it.
	then func(snap [][]byte, err error)
	// Observability: per-service op sequence number and admission time
	// (set under the atomicity domain when the observer is installed).
	id    int64
	start rt.Ticks
}

// Service is one node's concurrent front to one snapshot object. Clients
// call Update/Scan from any number of threads; exactly one dedicated
// thread must run Serve.
type Service struct {
	rtm  rt.Runtime
	obj  Object
	opts Options

	// Guarded by the node's atomicity domain (rtm.Atomic / handler lock).
	q       []*request
	closed  bool
	serving bool
	stopped bool // worker exited with an error; no one will drain q
	stats   Stats
	nextOp  int64

	// The worker's own: the batch it serves, which becomes the next queue
	// once served (the queue is double-buffered), the queue's closed flag
	// as of the take, and the scans of an atomic-mode cycle.
	batch       []*request
	batchClosed bool
	scans       []*request

	// Built once: PolicyBlock's admission predicate, the worker's idle
	// predicate and its queue take.
	admissible, ready func() bool
	take              func()
}

// New creates the service for one node's object. The object's protocol
// handler must be registered with the runtime as usual; the service only
// occupies the node's (single) client thread via Serve.
func New(r rt.Runtime, obj Object, opts Options) *Service {
	if opts.MaxPending <= 0 {
		opts.MaxPending = DefaultMaxPending
	}
	s := &Service{rtm: r, obj: obj, opts: opts}
	s.admissible = func() bool { return s.stopped || s.closed || len(s.q) < s.opts.MaxPending }
	s.ready = func() bool { return len(s.q) > 0 || s.closed }
	s.take = func() { s.batch, s.q, s.batchClosed = s.q, s.batch[:0], s.closed }
	return s
}

// Stats returns a copy of the counters.
func (s *Service) Stats() Stats {
	var st Stats
	s.rtm.Atomic(func() { st = s.stats })
	return st
}

// QueueLen returns the current queue depth (for tests and monitoring).
func (s *Service) QueueLen() int {
	var n int
	s.rtm.Atomic(func() { n = len(s.q) })
	return n
}

// Close stops admission and lets Serve drain: already-queued requests are
// still served; subsequent Update/Scan calls fail with ErrClosed. Safe to
// call from any thread, more than once.
func (s *Service) Close() {
	s.rtm.Atomic(func() { s.closed = true })
}

// Update writes payload to this node's segment through the service,
// blocking until the batch containing it commits (or fails).
func (s *Service) Update(payload []byte) error {
	tk, err := s.UpdateAsync(payload)
	if err != nil {
		return err
	}
	return tk.Wait()
}

// Scan returns a snapshot through the service, blocking until a protocol
// scan issued after this call's admission completes. The returned slice is
// shared among the scan's waiters and must be treated as read-only.
func (s *Service) Scan() ([][]byte, error) {
	tk, err := s.ScanAsync()
	if err != nil {
		return nil, err
	}
	if err := tk.Wait(); err != nil {
		return nil, err
	}
	return tk.Snap(), nil
}

// Ticket is the handle to an operation that has been admitted (its place
// in the serving order is fixed) but not awaited yet. It is the request
// itself: the queue holds a pointer into it.
type Ticket struct {
	s       *Service
	req     request
	verdict error // the admission's, set in the critical section that admits
}

// Wait blocks until the operation commits or fails.
func (t *Ticket) Wait() error {
	if err := rt.WaitUntil(t.s.rtm, "svc: await response", func() bool { return t.req.done }); err != nil {
		return err // node crashed while waiting
	}
	return t.req.err
}

// Snap returns a scan ticket's snapshot after a successful Wait (nil for
// update tickets). Shared among the scan's waiters; treat as read-only.
func (t *Ticket) Snap() [][]byte { return t.req.snap }

// UpdateAsync admits an update and returns without waiting for it to
// commit; the ticket's Wait reports the outcome. This splits admission
// (which fixes the operation's position in the serving order) from
// completion, letting a client pipeline requests or overlap its own work
// with the batch's protocol rounds.
func (s *Service) UpdateAsync(payload []byte) (*Ticket, error) {
	return s.enqueue(&Ticket{s: s, req: request{kind: opUpdate, payload: payload}})
}

// ScanAsync admits a scan and returns without waiting; after Wait the
// snapshot is available from Snap.
func (s *Service) ScanAsync() (*Ticket, error) {
	return s.enqueue(&Ticket{s: s, req: request{kind: opScan}})
}

// AdmitUpdate admits an update from a message handler or a critical
// section: call only inside the node's atomicity domain; never blocks;
// refuses when full whatever Policy (ErrOverloaded, counted in
// Stats.Rejected), and with ErrClosed or rt.ErrCrashed when nothing will
// serve the queue. Once admitted, then runs exactly once, in the critical
// section that resolves the request (its batch's commit, or failAll when
// the worker dies), so it must neither block nor re-enter Atomic. A refused
// request never runs then.
func (s *Service) AdmitUpdate(payload []byte, then func(snap [][]byte, err error)) error {
	return s.admitLocked(&request{kind: opUpdate, payload: payload, then: then})
}

// AdmitScan is AdmitUpdate for a scan: call only inside the node's
// atomicity domain; never blocks; refuses when full whatever Policy. then
// receives the shared, read-only snapshot of a protocol scan issued after
// this admission; ahead is the queue depth the scan was admitted behind.
func (s *Service) AdmitScan(then func(snap [][]byte, err error)) (ahead int, err error) {
	ahead = len(s.q)
	return ahead, s.admitLocked(&request{kind: opScan, then: then})
}

// enqueue admits the ticket's request from a client thread, applying the
// backpressure policy; it returns the ticket once admitted.
func (s *Service) enqueue(tk *Ticket) (*Ticket, error) {
	admit := func() { tk.verdict = s.admitLocked(&tk.req) }
	if s.opts.Policy == PolicyReject {
		s.rtm.Atomic(admit)
	} else if err := s.rtm.WaitUntilThen("svc: admission (backpressure)", s.admissible, admit); err != nil {
		return nil, err
	}
	if tk.verdict != nil {
		return nil, tk.verdict
	}
	return tk, nil
}

// admitLocked queues the request or says why not; must run in the
// atomicity domain.
func (s *Service) admitLocked(req *request) error {
	switch {
	case s.stopped || s.rtm.Crashed():
		// The worker exited with an error (node crash) or is about to;
		// nothing will ever drain this queue again.
		return rt.ErrCrashed
	case s.closed:
		return ErrClosed
	case len(s.q) >= s.opts.MaxPending:
		// From a client thread only reachable under PolicyReject:
		// PolicyBlock's wait predicate holds the caller until there is room.
		s.stats.Rejected++
		return ErrOverloaded
	}
	if req.kind == opUpdate {
		s.stats.Updates++
	} else {
		s.stats.Scans++
	}
	if s.opts.Observer != nil {
		s.nextOp++
		req.id = s.nextOp
		req.start = s.rtm.Now()
		s.opts.Observer.OnOp(rt.OpEvent{
			T: req.start, Node: s.rtm.ID(), ID: req.id,
			Op: req.opName(), Phase: rt.PhaseStart,
		})
	}
	s.q = append(s.q, req)
	return nil
}

// Serve runs the worker loop on the calling thread (the node's one client
// thread in the paper's model): it repeatedly takes the whole queue and
// serves it with batched protocol operations. It returns nil after Close once the
// queue is drained, or rt.ErrCrashed if the node crashes.
func (s *Service) Serve() error {
	s.rtm.Atomic(func() {
		if s.serving {
			panic("svc: Serve called twice")
		}
		s.serving = true
	})
	// The worker's buffers go with it.
	defer func() { s.batch, s.scans = nil, nil }()
	for {
		if err := rt.WaitUntil(s.rtm, "svc: worker idle", s.ready); err != nil {
			// The worker is the only thing that resolves requests; fail
			// everything still queued so the then hooks of in-domain
			// admissions run (parked clients already saw the crash).
			s.failAll(err)
			return err
		}
		// Take the queue once this thread runs, not in the critical section
		// that woke it: whatever is admitted in between joins the batch.
		// The served batch, emptied, is the next queue.
		s.rtm.Atomic(s.take)
		if len(s.batch) == 0 {
			if s.batchClosed {
				s.rtm.Atomic(func() { s.q = nil }) // its buffer is the last batch's
				return nil
			}
			continue
		}
		s.serveCycle(s.batch)
		clear(s.batch) // resolved requests belong to their clients now
	}
}

// failAll resolves every queued request with err and stops admission.
// Called when Serve exits abnormally: without it, the then hook of an
// in-domain admission would never run, and its caller never be answered.
func (s *Service) failAll(err error) {
	s.rtm.Atomic(func() {
		s.stopped = true
		for _, req := range s.q {
			req.err = err
			s.resolve(req)
		}
		s.q = nil
	})
}

// serveCycle serves one drained queue according to the configured mode.
func (s *Service) serveCycle(batch []*request) {
	switch {
	case s.opts.Serialize:
		for i, req := range batch {
			if req.kind == opUpdate {
				s.serveUpdates(batch[i : i+1])
			} else {
				s.serveScans(batch[i : i+1])
			}
		}
	case s.opts.Mode == ModeSequential:
		// Maximal same-kind runs, in arrival order.
		for i := 0; i < len(batch); {
			j := i
			for j < len(batch) && batch[j].kind == batch[i].kind {
				j++
			}
			if batch[i].kind == opUpdate {
				s.serveUpdates(batch[i:j])
			} else {
				s.serveScans(batch[i:j])
			}
			i = j
		}
	default: // ModeAtomic
		// Updates move to the batch's front in arrival order; scans go to
		// the worker's scratch slice.
		ups := batch[:0]
		for _, req := range batch {
			if req.kind == opUpdate {
				ups = append(ups, req)
			} else {
				s.scans = append(s.scans, req)
			}
		}
		if len(ups) > 0 {
			s.serveUpdates(ups)
		}
		if len(s.scans) > 0 {
			s.serveScans(s.scans)
			clear(s.scans)
			s.scans = s.scans[:0]
		}
	}
}

// serveUpdates commits one update batch through one protocol UPDATE.
func (s *Service) serveUpdates(ups []*request) {
	payloads := make([][]byte, len(ups))
	for i, req := range ups {
		payloads[i] = req.payload
	}
	var err error
	if b, ok := s.obj.(engine.Batcher); ok {
		err = b.UpdateBatch(payloads)
	} else {
		// Last-value-wins: the batch members are linearized consecutively
		// (arrival order) at the commit point; only the last value is ever
		// observable, as if each had been immediately overwritten by its
		// concurrent successor.
		err = s.obj.Update(payloads[len(payloads)-1])
	}
	s.rtm.Atomic(func() {
		s.stats.ProtoUpdates++
		if len(ups) > s.stats.MaxBatch {
			s.stats.MaxBatch = len(ups)
		}
		for _, req := range ups {
			req.err = err
			s.resolve(req)
		}
	})
}

// serveScans answers a group of scan waiters with one shared protocol
// SCAN. Every waiter was admitted before the scan is issued, so the scan's
// linearization point lies inside each waiter's interval.
func (s *Service) serveScans(scans []*request) {
	snap, err := s.obj.Scan()
	s.rtm.Atomic(func() {
		s.stats.ProtoScans++
		for _, req := range scans {
			req.snap = snap
			req.err = err
			s.resolve(req)
		}
	})
}

// resolve finishes a request whose err/snap are final and tells whoever
// waits for it: a client parked in WaitUntilThen sees done when this
// critical section ends, an in-domain admission runs its then hook here.
// Must run in the atomicity domain.
func (s *Service) resolve(req *request) {
	req.done = true
	s.observeEnd(req)
	if req.then != nil {
		req.then(req.snap, req.err)
	}
}

// opName is the observer-facing operation name.
func (r *request) opName() string {
	if r.kind == opUpdate {
		return "svc.update"
	}
	return "svc.scan"
}

// observeEnd emits a request's end event (admission-to-resolution
// latency). Must run in the atomicity domain, like all request state.
func (s *Service) observeEnd(req *request) {
	if s.opts.Observer == nil {
		return
	}
	now := s.rtm.Now()
	s.opts.Observer.OnOp(rt.OpEvent{
		T: now, Node: s.rtm.ID(), ID: req.id, Op: req.opName(),
		Phase: rt.PhaseEnd, Dur: now - req.start, Err: req.err != nil,
	})
}

// ModeFor returns the serving mode appropriate for an engine name as used
// across the repository: sequentially-consistent engines (the SSO family)
// get ModeSequential, everything else ModeAtomic. The verdict comes from
// the engine registry when the engine is linked in; unregistered names
// fall back to the SSO naming convention so binaries that link no engines
// still resolve correctly.
func ModeFor(alg string) Mode {
	if in, err := engine.Lookup(alg); err == nil {
		if in.Sequential {
			return ModeSequential
		}
		return ModeAtomic
	}
	if alg == "sso" || alg == "sso-byz" {
		return ModeSequential
	}
	return ModeAtomic
}

// String implements fmt.Stringer for diagnostics.
func (m Mode) String() string {
	switch m {
	case ModeAtomic:
		return "atomic"
	case ModeSequential:
		return "sequential"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}
