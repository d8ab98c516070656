// Package sim is a deterministic discrete-event simulator of the paper's
// asynchronous message-passing system (Section II-A).
//
// Time is virtual: every message between distinct nodes is delivered within
// D ticks (rt.TicksPerD by default), with the exact delay chosen by a
// pluggable DelayModel and the failure pattern chosen by an Adversary.
// Channels are reliable and FIFO; once a send completes, delivery happens
// even if the sender crashes afterwards. Crashes may truncate a broadcast
// partway through (a prefix of destinations receives the message), which is
// what makes the paper's failure chains (Definition 11) expressible.
//
// Node message handlers run atomically on the scheduler goroutine. Client
// operations run in "processes" (goroutines) that the scheduler resumes one
// at a time, so an entire simulation is single-threaded and fully
// deterministic for a given seed, delay model, and adversary.
package sim

import (
	"cmp"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"sort"
	"strings"

	"mpsnap/internal/rt"
	"mpsnap/internal/wire"
)

// CopyThroughEnv is the environment variable that force-enables
// Config.CopyThrough for every World (CI runs the whole test suite with
// it set, so every registered message of every scenario crosses the
// codec).
const CopyThroughEnv = "MPSNAP_WIRE_COPYTHROUGH"

// Config parameterizes a World.
type Config struct {
	// N is the number of nodes; must be >= 1.
	N int
	// F is the resilience bound reported to algorithms via rt.Runtime.F.
	F int
	// D is the maximum message delay in ticks. 0 means rt.TicksPerD.
	D rt.Ticks
	// Delay chooses per-message delays. nil means Uniform{1, D}.
	Delay DelayModel
	// Adversary intercepts broadcasts to model crash-during-send and
	// other failure patterns. nil means no interference.
	Adversary Adversary
	// Link intercepts point-to-point sends between distinct nodes to
	// model message loss and delay spikes (see LinkAdversary). nil means
	// a fault-free network.
	Link LinkAdversary
	// CopyThrough round-trips every sent message through the
	// internal/wire codec (encode, decode, verify the re-encode is
	// byte-identical), so simulator runs exercise exactly the encodings a
	// real deployment would and receivers share no memory with senders.
	// Messages of unregistered types (test-local scaffolding) pass
	// through unchanged; a codec failure on a registered type panics —
	// it is a registration or canonicality bug, never an input error.
	// The MPSNAP_WIRE_COPYTHROUGH environment variable force-enables it.
	CopyThrough bool
	// Wire intercepts messages between distinct nodes at the codec layer,
	// after the link adversary: it may rewrite the message (a corrupt
	// frame that still decodes) or drop it (a corrupt frame the receiver
	// rejects and treats as a dead connection). nil means no wire faults.
	Wire WireFault
	// Observer, if set, receives a rt.MsgEvent for every message
	// lifecycle step (send, deliver, drop, corrupt). It is invoked
	// synchronously on the scheduler, so it must not block or mutate
	// simulation state; internal/obs provides the standard
	// implementations. Held (partitioned) messages emit their send event
	// when the partition heals and they are actually dispatched.
	Observer rt.Observer
	// Seed seeds the simulation's private RNG (used by random delay
	// models). The default 0 is a valid seed.
	Seed int64
	// MaxEvents aborts the run (with an error) after this many scheduler
	// steps, as a livelock backstop. 0 means 100,000,000.
	MaxEvents int64
	// Sequencer, if set, replaces time-ordered delivery with explicit
	// schedule control: at every step the sequencer picks which eligible
	// event fires next (per-channel FIFO is still enforced — only the
	// oldest undelivered message of each channel is eligible). Virtual
	// time degenerates to a step counter. Used by the schedule explorer
	// (internal/explore); scenarios must not rely on Sleep durations.
	Sequencer Sequencer
}

// WireFault models faults at the wire (codec) layer — the simulator
// counterpart of flipped bits on a TCP stream. OnWire sees every message
// between distinct nodes; it returns drop=true to discard the message
// (modelling a frame the receiver could not decode, i.e. a closed
// connection), a non-nil replacement to deliver a corrupted rewrite, or
// (nil, false) to deliver the message unchanged.
type WireFault interface {
	OnWire(now rt.Ticks, src, dst int, msg rt.Message) (replacement rt.Message, drop bool)
}

// EventInfo describes one eligible event for a Sequencer.
type EventInfo struct {
	// Src/Dst identify a message event's channel; Src is -1 for
	// non-message events (timers, scheduled crashes).
	Src, Dst int
	// Kind is the message kind (empty for non-message events).
	Kind string
}

// Sequencer chooses which eligible event fires next. Implementations must
// be deterministic functions of the choice history to support replay.
type Sequencer interface {
	// Next returns an index into eligible (len ≥ 1). eligible is valid
	// only during the call: the World reuses it on the next step, so an
	// implementation that keeps it must copy it.
	Next(eligible []EventInfo) int
}

// World is one simulated execution.
type World struct {
	cfg   Config
	now   rt.Ticks
	seq   int64
	pq    eventHeap
	rng   *rand.Rand
	nodes []*nodeState
	// lastDeliv[src][dst] is the latest scheduled delivery time on the
	// (src,dst) channel; later sends may not be delivered earlier (FIFO).
	lastDeliv [][]rt.Ticks

	// Partition state: cut[src][dst] marks severed channels; held parks
	// cross-cut messages (in send order) until their link is no longer cut.
	partitioned bool
	cut         [][]bool
	held        []heldMsg

	// Per-step buffers, reused so a scheduler step allocates nothing:
	// dsts is the destination list handed to the Adversary; chanHead,
	// cands and infos are pickSequenced's channel-head index (1 + the
	// index in cands of channel src*N+dst's oldest message, 0 = none),
	// eligible heap indices and their descriptions.
	dsts     []int
	chanHead []int
	cands    []int
	infos    []EventInfo

	procs    []*Proc
	newProcs []*Proc
	waiters  []*waiter
	current  *Proc
	parkCh   chan parkMsg

	steps       int64
	msgsTotal   int64
	msgsDrop    int64
	msgsHeld    int64
	msgsCorrupt int64
	msgsByKind  map[string]int64

	tracer func(TraceEvent)

	ran bool
}

// TraceEvent is one observable simulator event (for tooling and debug
// output). Kind is "send", "deliver", "crash", "restart", "drop" (link
// adversary discarded the message), "corrupt" (wire fault rewrote or
// killed the message), "hold" (parked at a partition cut), "partition",
// or "heal".
type TraceEvent struct {
	T    rt.Ticks
	Kind string
	Src  int
	Dst  int
	Msg  string // message kind; empty for crashes
}

// SetTracer installs an event observer. It is invoked synchronously on
// the scheduler, so it must not block or mutate simulation state.
func (w *World) SetTracer(fn func(TraceEvent)) { w.tracer = fn }

type nodeState struct {
	handler   rt.Handler
	crashed   bool
	version   int64 // bumped whenever node state may have changed
	sent      int64
	delivered int64
	// inside names the critical section the node is running ("" = none):
	// a handler, an Atomic, or a WaitUntilThen's then. See World.enter.
	inside string
}

// enter marks node id as inside one of its critical sections. On the chan
// and tcp backends that section is a plain mutex, so entering it from
// inside itself — Atomic from a handler or a then, Atomic in Atomic —
// self-deadlocks; the simulator serializes everything and would pass the
// same code, so it panics on the re-entry instead. The flag changes no
// schedule.
func (w *World) enter(id int, what string) {
	ns := w.nodes[id]
	if ns.inside != "" {
		panic(fmt.Sprintf("sim: %s inside %s on node %d re-enters the node's critical section (a self-deadlock on the chan and tcp backends)", what, ns.inside, id))
	}
	ns.inside = what
}

// leave ends the critical section enter began.
func (w *World) leave(id int) { w.nodes[id].inside = "" }

// event is one scheduled step, held by value in the World's queue. A
// message delivery is data — src, dst, msg and the kind named once at
// send time — that Run hands to deliver; fn is set only for timer and
// crash events, which have src = dst = -1.
type event struct {
	t        rt.Ticks
	seq      int64
	src, dst int
	kind     string
	msg      rt.Message
	fn       func()
}

// eventHeap is a binary min-heap of events ordered by (t, seq). Once its
// backing array has grown to the run's peak queue, push and remove
// allocate nothing.
type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].seq < h[j].seq
}

func (h *eventHeap) push(e event) {
	*h = append(*h, e)
	h.up(len(*h) - 1)
}

// remove takes out the event at index i (0 is the earliest). It clears
// the slot it vacates, so the queue's spare capacity keeps no delivered
// message alive.
func (h *eventHeap) remove(i int) event {
	q := *h
	n := len(q) - 1
	e := q[i]
	q[i] = q[n]
	q[n] = event{}
	*h = q[:n]
	if i < n && !h.down(i) {
		h.up(i)
	}
	return e
}

func (h eventHeap) up(j int) {
	for j > 0 {
		i := (j - 1) / 2
		if !h.less(j, i) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

// down sifts h[i0] toward the leaves and reports whether it moved.
func (h eventHeap) down(i0 int) bool {
	i := i0
	for {
		j := 2*i + 1
		if j >= len(h) {
			break
		}
		if r := j + 1; r < len(h) && h.less(r, j) {
			j = r
		}
		if !h.less(j, i) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	return i > i0
}

// New creates a fresh simulated world.
func New(cfg Config) *World {
	if cfg.N < 1 {
		panic("sim: Config.N must be >= 1")
	}
	if cfg.D == 0 {
		cfg.D = rt.TicksPerD
	}
	if cfg.Delay == nil {
		cfg.Delay = Uniform{Min: 1, Max: cfg.D}
	}
	if cfg.MaxEvents == 0 {
		cfg.MaxEvents = 100_000_000
	}
	if os.Getenv(CopyThroughEnv) != "" {
		cfg.CopyThrough = true
	}
	w := &World{
		cfg:        cfg,
		rng:        rand.New(rand.NewSource(cfg.Seed)),
		parkCh:     make(chan parkMsg),
		msgsByKind: make(map[string]int64),
	}
	w.nodes = make([]*nodeState, cfg.N)
	for i := range w.nodes {
		w.nodes[i] = &nodeState{}
	}
	w.lastDeliv = make([][]rt.Ticks, cfg.N)
	for i := range w.lastDeliv {
		w.lastDeliv[i] = make([]rt.Ticks, cfg.N)
	}
	if cfg.Adversary != nil {
		w.dsts = make([]int, cfg.N)
	}
	if cfg.Sequencer != nil {
		w.chanHead = make([]int, cfg.N*cfg.N)
	}
	return w
}

// Now returns the current virtual time.
func (w *World) Now() rt.Ticks { return w.now }

// D returns the configured maximum message delay.
func (w *World) D() rt.Ticks { return w.cfg.D }

// N returns the number of nodes.
func (w *World) N() int { return w.cfg.N }

// F returns the resilience bound.
func (w *World) F() int { return w.cfg.F }

// SetHandler installs the message handler (server thread) of node id.
func (w *World) SetHandler(id int, h rt.Handler) { w.nodes[id].handler = h }

// Runtime returns the rt.Runtime for node id.
func (w *World) Runtime(id int) rt.Runtime { return &nodeRuntime{w: w, id: id} }

// Crashed reports whether node id has crashed.
func (w *World) Crashed(id int) bool { return w.nodes[id].crashed }

// CrashAt schedules node id to crash at time t (before any delivery at t).
func (w *World) CrashAt(id int, t rt.Ticks) {
	w.schedule(t, func() { w.crash(id) })
}

// Crash crashes node id immediately. In-flight messages it already sent are
// still delivered; it stops sending and handling, and any blocked operation
// on it fails with rt.ErrCrashed.
func (w *World) Crash(id int) { w.crash(id) }

func (w *World) crash(id int) {
	ns := w.nodes[id]
	if ns.crashed {
		return
	}
	ns.crashed = true
	ns.version++
	if w.tracer != nil {
		w.tracer(TraceEvent{T: w.now, Kind: "crash", Src: id, Dst: -1})
	}
}

// Restart brings a crashed node back with the recovered incarnation's
// handler h, installed in the same step: it resumes receiving, sending,
// and handling messages. The caller spawns a fresh client process
// (GoNode) after it — processes of the old incarnation died with
// rt.ErrCrashed at crash time and stay dead. Channel state survives the
// model's way: messages already in flight to the node when it crashed are
// delivered to the NEW incarnation if their delivery time falls after the
// restart (the node re-binds the same identity), while deliveries that
// fired during the downtime are lost forever.
func (w *World) Restart(id int, h rt.Handler) {
	ns := w.nodes[id]
	ns.handler = h
	if !ns.crashed {
		return
	}
	ns.crashed = false
	ns.version++
	if w.tracer != nil {
		w.tracer(TraceEvent{T: w.now, Kind: "restart", Src: id, Dst: -1})
	}
}

// CrashedCount returns the number of crashed nodes.
func (w *World) CrashedCount() int {
	k := 0
	for _, ns := range w.nodes {
		if ns.crashed {
			k++
		}
	}
	return k
}

// schedule enqueues fn to run at time t (>= now).
func (w *World) schedule(t rt.Ticks, fn func()) {
	w.enqueue(event{t: t, src: -1, dst: -1, fn: fn})
}

// enqueue stamps e with the next sequence number and queues it, no
// earlier than now.
func (w *World) enqueue(e event) {
	if e.t < w.now {
		e.t = w.now
	}
	w.seq++
	e.seq = w.seq
	w.pq.push(e)
}

// After schedules fn to run d ticks from now. It is the hook scenario code
// uses to inject actions (crashes, probes) at chosen times.
func (w *World) After(d rt.Ticks, fn func()) { w.schedule(w.now+d, fn) }

// send transmits one message on the (src,dst) channel, consulting the
// link adversary, the wire-fault hook, and the partition cut. kind is
// msg.Kind(), named once by the caller.
func (w *World) send(src, dst int, msg rt.Message, kind string) {
	if w.nodes[src].crashed {
		return
	}
	if w.cfg.CopyThrough {
		// Per-destination round trip: each receiver gets the message a
		// codec would hand it, sharing no memory with the sender or with
		// other receivers of the same broadcast. Messages a codec could
		// not encode (test-local types, envelopes nesting them) pass
		// through unchanged.
		if wire.Marshalable(msg) {
			m, err := wire.Roundtrip(msg)
			if err != nil {
				panic(fmt.Sprintf("sim: copy-through %d->%d: %v", src, dst, err))
			}
			msg = m
		}
	}
	w.nodes[src].sent++
	w.msgsTotal++
	w.msgsByKind[kind]++
	var extra rt.Ticks
	if src != dst {
		if w.cfg.Link != nil {
			fate := w.cfg.Link.OnSend(w.now, src, dst, kind)
			if fate.Drop {
				w.msgsDrop++
				if w.tracer != nil {
					w.tracer(TraceEvent{T: w.now, Kind: "drop", Src: src, Dst: dst, Msg: kind})
				}
				w.observe(rt.MsgDrop, src, dst, msg, kind)
				return
			}
			extra = fate.Extra
		}
		if w.cfg.Wire != nil {
			m, drop := w.cfg.Wire.OnWire(w.now, src, dst, msg)
			if drop {
				w.msgsCorrupt++
				w.msgsDrop++
				if w.tracer != nil {
					w.tracer(TraceEvent{T: w.now, Kind: "corrupt", Src: src, Dst: dst, Msg: kind})
				}
				w.observe(rt.MsgCorrupt, src, dst, msg, kind)
				return
			}
			if m != nil {
				w.msgsCorrupt++
				if w.tracer != nil {
					w.tracer(TraceEvent{T: w.now, Kind: "corrupt", Src: src, Dst: dst, Msg: kind})
				}
				w.observe(rt.MsgCorrupt, src, dst, msg, kind)
				msg, kind = m, m.Kind()
			}
		}
		if w.partitioned && w.cut[src][dst] {
			w.msgsHeld++
			w.held = append(w.held, heldMsg{src: src, dst: dst, msg: msg, kind: kind})
			if w.tracer != nil {
				w.tracer(TraceEvent{T: w.now, Kind: "hold", Src: src, Dst: dst, Msg: kind})
			}
			return
		}
	}
	w.post(src, dst, msg, kind, extra)
}

// post emits the send event of a message that leaves for its destination
// now — at its send, or at the heal that releases it from a cut — and
// dispatches it.
func (w *World) post(src, dst int, msg rt.Message, kind string, extra rt.Ticks) {
	if w.tracer != nil {
		w.tracer(TraceEvent{T: w.now, Kind: "send", Src: src, Dst: dst, Msg: kind})
	}
	w.observe(rt.MsgSend, src, dst, msg, kind)
	w.dispatch(src, dst, msg, kind, extra)
}

// observe forwards a message lifecycle event to the configured
// Observer, if any. The encoded size is computed only when someone is
// listening; unmarshalable test-local messages report 0 bytes.
func (w *World) observe(event string, src, dst int, msg rt.Message, kind string) {
	if w.cfg.Observer != nil {
		w.cfg.Observer.OnMsg(rt.MsgEvent{
			T: w.now, Event: event, Src: src, Dst: dst,
			Kind: kind, Bytes: wire.EncodedSize(msg),
		})
	}
}

// dispatch schedules the actual delivery: base delay in [1, D] from the
// delay model (1 tick for a message a node sends to itself), plus any
// adversarial extra, never overtaking earlier sends
// on the same channel (FIFO).
func (w *World) dispatch(src, dst int, msg rt.Message, kind string, extra rt.Ticks) {
	d := rt.Ticks(1)
	if src != dst {
		d = w.cfg.Delay.Delay(src, dst, kind, w.now, w.rng)
	}
	if d < 1 {
		d = 1
	}
	if d > w.cfg.D {
		d = w.cfg.D
	}
	t := w.now + d + extra
	if t < w.lastDeliv[src][dst] {
		t = w.lastDeliv[src][dst] // FIFO: never overtake an earlier send
	}
	w.lastDeliv[src][dst] = t
	w.enqueue(event{t: t, src: src, dst: dst, kind: kind, msg: msg})
}

func (w *World) deliver(src, dst int, msg rt.Message, kind string) {
	ns := w.nodes[dst]
	if ns.crashed {
		return
	}
	ns.delivered++
	ns.version++
	if w.tracer != nil {
		w.tracer(TraceEvent{T: w.now, Kind: "deliver", Src: src, Dst: dst, Msg: kind})
	}
	w.observe(rt.MsgDeliver, src, dst, msg, kind)
	if ns.handler != nil {
		w.enter(dst, "a handler")
		ns.handler.HandleMessage(src, msg)
		w.leave(dst)
	}
}

// broadcast sends msg from src to all nodes (including src), possibly
// truncated by the adversary, which may also crash src afterwards.
func (w *World) broadcast(src int, msg rt.Message) {
	if w.nodes[src].crashed {
		return
	}
	kind := msg.Kind()
	if w.cfg.Adversary == nil {
		for dst := 0; dst < w.cfg.N; dst++ {
			w.send(src, dst, msg, kind)
		}
		return
	}
	for i := range w.dsts {
		w.dsts[i] = i
	}
	dsts, crashAfter := w.cfg.Adversary.OnBroadcast(w.now, src, msg, w.dsts)
	for _, dst := range dsts {
		w.send(src, dst, msg, kind)
	}
	if crashAfter {
		w.crash(src)
	}
}

// Stats is a snapshot of simulation counters.
type Stats struct {
	Now         rt.Ticks
	Events      int64
	MsgsTotal   int64
	MsgsDrop    int64 // discarded by the link adversary or a wire fault
	MsgsHeld    int64 // parked at a partition cut (delivered on heal)
	MsgsCorrupt int64 // rewritten or killed by the wire-fault hook
	MsgsByKind  map[string]int64
	SentByNode  []int64
}

// Stats returns current counters. The returned maps/slices are copies.
func (w *World) Stats() Stats {
	s := Stats{
		Now:         w.now,
		Events:      w.steps,
		MsgsTotal:   w.msgsTotal,
		MsgsDrop:    w.msgsDrop,
		MsgsHeld:    w.msgsHeld,
		MsgsCorrupt: w.msgsCorrupt,
		MsgsByKind:  make(map[string]int64, len(w.msgsByKind)),
		SentByNode:  make([]int64, w.cfg.N),
	}
	for k, v := range w.msgsByKind {
		s.MsgsByKind[k] = v
	}
	for i, ns := range w.nodes {
		s.SentByNode[i] = ns.sent
	}
	return s
}

// DeadlockError is returned by Run when no event can make progress while
// processes are still blocked. Waiters identifies every blocked
// WaitUntilThen predicate (process name, node id, wait label, block time)
// so hangs — e.g. a chaos run that dropped a quorum's worth of messages —
// are diagnosable rather than a bare failure.
type DeadlockError struct {
	Now     rt.Ticks
	Waiters []BlockedWaiter
}

// Blocked returns the formatted waiter descriptions (sorted).
func (e *DeadlockError) Blocked() []string {
	out := make([]string, len(e.Waiters))
	for i, bw := range e.Waiters {
		out[i] = bw.String()
	}
	sort.Strings(out)
	return out
}

func (e *DeadlockError) Error() string {
	return fmt.Sprintf("sim: deadlock at t=%d with %d blocked waiter(s):\n  %s",
		e.Now, len(e.Waiters), strings.Join(e.Blocked(), "\n  "))
}

// Run executes the simulation until every process has finished and the
// event queue is empty. It returns a *DeadlockError if processes remain
// blocked with no pending events, or an error if Config.MaxEvents is hit.
// Run must be called exactly once per World.
func (w *World) Run() error {
	if w.ran {
		panic("sim: World.Run called twice")
	}
	w.ran = true
	for {
		w.steps++
		if w.steps > w.cfg.MaxEvents {
			blocked := ""
			if bws := w.Blocked(); len(bws) > 0 {
				lines := make([]string, len(bws))
				for i, bw := range bws {
					lines[i] = bw.String()
				}
				sort.Strings(lines)
				blocked = fmt.Sprintf("; %d blocked waiter(s):\n  %s", len(lines), strings.Join(lines, "\n  "))
			}
			return fmt.Errorf("sim: exceeded MaxEvents=%d at t=%d (livelock?)%s", w.cfg.MaxEvents, w.now, blocked)
		}
		// 1. Start any newly spawned processes.
		if len(w.newProcs) > 0 {
			p := w.newProcs[0]
			w.newProcs = w.newProcs[1:]
			w.runProc(p, false)
			continue
		}
		// 2. Resume a blocked process whose predicate now holds (or
		//    whose node crashed).
		if i := w.findFireable(); i >= 0 {
			wt := w.waiters[i]
			w.waiters = append(w.waiters[:i], w.waiters[i+1:]...)
			w.runProc(wt.p, wt.node >= 0 && w.nodes[wt.node].crashed)
			continue
		}
		// 3. Advance virtual time to the next event (or let the
		//    sequencer pick any eligible one, for schedule exploration).
		if len(w.pq) > 0 {
			var ev event
			if w.cfg.Sequencer != nil {
				ev = w.pickSequenced()
			} else {
				ev = w.pq.remove(0)
			}
			if ev.t > w.now {
				w.now = ev.t
			}
			if ev.src >= 0 {
				w.deliver(ev.src, ev.dst, ev.msg, ev.kind)
			} else {
				ev.fn()
			}
			continue
		}
		// 4. Quiescent.
		if len(w.waiters) > 0 {
			return &DeadlockError{Now: w.now, Waiters: w.Blocked()}
		}
		return nil
	}
}

// pickSequenced builds the eligible event set — every non-message event,
// plus the oldest undelivered message per channel (FIFO) — and lets the
// sequencer choose. Eligible events are presented in a deterministic
// (send-sequence) order so choices replay exactly.
func (w *World) pickSequenced() event {
	n := w.cfg.N
	cands := w.cands[:0]
	for i := range w.pq {
		ev := &w.pq[i]
		if ev.src < 0 {
			cands = append(cands, i)
			continue
		}
		c := ev.src*n + ev.dst
		if j := w.chanHead[c] - 1; j >= 0 {
			if ev.seq < w.pq[cands[j]].seq {
				cands[j] = i
			}
			continue
		}
		cands = append(cands, i)
		w.chanHead[c] = len(cands)
	}
	slices.SortFunc(cands, func(a, b int) int { return cmp.Compare(w.pq[a].seq, w.pq[b].seq) })
	infos := w.infos[:0]
	for _, i := range cands {
		ev := &w.pq[i]
		if ev.src >= 0 {
			w.chanHead[ev.src*n+ev.dst] = 0
		}
		infos = append(infos, EventInfo{Src: ev.src, Dst: ev.dst, Kind: ev.kind})
	}
	w.cands, w.infos = cands, infos
	choice := w.cfg.Sequencer.Next(infos)
	if choice < 0 || choice >= len(cands) {
		panic(fmt.Sprintf("sim: sequencer chose %d of %d eligible events", choice, len(cands)))
	}
	return w.pq.remove(cands[choice])
}

func (w *World) findFireable() int {
	for i, wt := range w.waiters {
		if wt.node >= 0 {
			ns := w.nodes[wt.node]
			if ns.crashed {
				return i
			}
			if ns.version == wt.seenVersion && w.now == wt.seenNow {
				continue // nothing changed since last evaluation
			}
			wt.seenVersion = ns.version
			wt.seenNow = w.now
		}
		if wt.pred() {
			return i
		}
	}
	return -1
}
