package main

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mpsnap/internal/cluster"
	"mpsnap/internal/engine"
	"mpsnap/internal/harness"
	"mpsnap/internal/history"
	"mpsnap/internal/monitor"
	"mpsnap/internal/mux"
	"mpsnap/internal/rt"
	"mpsnap/internal/svc"
	"mpsnap/internal/wal"
	"mpsnap/internal/wire"
)

// sampleEvery is the span sampling rate: spans are kept for one op in 64
// (and one handler call in 64); counters and busy times cover every call.
const sampleEvery = 64

// corpusPerNode bounds the messages each node captures for the wire and
// transport micro-measurements.
const corpusPerNode = 128

// tracer is the traced run's instrumentation. All of it lives here, in
// the benchmark: it wraps the values the benchmark hands to each layer
// (svc.Object, rt.Handler, wal.File) and installs the rt.Observer hooks
// the layers already offer. An untraced run has no tracer at all.
type tracer struct {
	// clock reads µs: real time since the mesh epoch on TCP (the same
	// clock rt.Runtime.Now ticks on at tickD), virtual time on the
	// simulator. The stack sets it once it is built.
	clock func() int64
	// tickOffset is added to the runtime's own timestamps (observer
	// events) to put them on clock: 0 on TCP; on the simulator each world
	// restarts virtual time at 0, so worlds are laid end to end.
	tickOffset int64
	nodes      []*nodeTrace
	ops        []opTimes // by op index; each entry written by its issuer only

	rec   *history.Recorder
	admit []sync.Mutex // per node: recorder order = svc admission order

	measuring                 atomic.Bool
	sends, sendBytes, corrupt atomic.Int64
	simSends                  atomic.Int64
	routedReqs, staleRejects  atomic.Int64

	measureStart        int64
	svcBefore, svcDelta svc.Stats
	transportErrs       int

	// cluster containment check (see clusterDone)
	keys     int
	total    int
	shardOf  []int // key → shard
	members  [][]int
	doneInv  []atomic.Int64 // [key*total+contact]: latest invocation among completed updates
	doneAt   []atomic.Int64 // op → completion time, read by other ops' checks
	opNeed   [][]int64      // scan op → copy of doneInv at its invocation
	opNeedMu sync.Mutex
	problems []string
}

type opTimes struct {
	due, t0, t2 int64 // µs on tracer.clock: due, issued, completed (0: not completed)
	node        int32 // node whose service front the op went to (unrouted workloads)
}

type engCall struct {
	kind       opKind
	start, end int64
	batch      int
}

type walEvent struct {
	sync       bool
	start, end int64
	ns         int64 // real duration
	bytes      int
	call       int // index into calls, or -1: issued from the message handler
}

type svcReq struct {
	kind       opKind
	start, end int64
	op         int // op index when the generator admitted it itself, else -1
}

type handleSpan struct{ start, end int64 }

// nodeTrace is one node's records. Handlers, the svc worker, WAL writes
// and observer callbacks run on different goroutines, so mu guards it.
type nodeTrace struct {
	mu        sync.Mutex
	inHandler bool
	handlerNS int64
	handlerN  int64
	handles   []handleSpan
	calls     []engCall
	open      int
	wals      []walEvent
	reqs      []svcReq // in completion order
	pending   map[int64]svcReq
	admitting int         // op the generator is admitting on this node right now, or -1
	reqOfOp   map[int]int // op index → index into reqs
	corpus    [][]byte

	phaseLast   int64
	phaseBucket string
	inRenewal   bool
	phaseUS     map[string]int64
}

func newTracer(nodes, nops int) *tracer {
	t := &tracer{nodes: make([]*nodeTrace, nodes), ops: make([]opTimes, nops), admit: make([]sync.Mutex, nodes)}
	for i := range t.nodes {
		t.nodes[i] = &nodeTrace{open: -1, admitting: -1, pending: make(map[int64]svcReq), reqOfOp: make(map[int]int), phaseUS: make(map[string]int64)}
	}
	return t
}

// checkHistory puts a recorded history through internal/monitor's
// streaming (A1)–(A4) checker, the one internal/chaos attaches to its
// runs. It is replayed once the measured phase is over, not attached as
// the recorder's sink: the monitor walks a writer's whole window on every
// completion, which at 48k ops/s took more processor time than the stack
// under it and turned the traced repetition into an overload test.
// Anything older than the window can only go unchecked, never misjudged.
func (t *tracer) checkHistory(h *history.History, n int, window rt.Ticks) {
	mon := monitor.Replay(h, monitor.Config{N: n, Window: window})
	for _, v := range mon.Violations() {
		t.problem("monitor: %s", v)
	}
}

// ---- wrappers --------------------------------------------------------

type tracedHandler struct {
	inner rt.Handler
	nt    *nodeTrace
	tr    *tracer
}

func (t *tracer) wrapHandler(i int, h rt.Handler) rt.Handler {
	return &tracedHandler{inner: h, nt: t.nodes[i], tr: t}
}

func (h *tracedHandler) HandleMessage(src int, msg rt.Message) {
	if !h.tr.measuring.Load() {
		h.inner.HandleMessage(src, msg)
		return
	}
	nt := h.nt
	nt.mu.Lock()
	nt.inHandler = true
	n := nt.handlerN
	nt.handlerN++
	grab := n%sampleEvery == 0 && len(nt.corpus) < corpusPerNode
	nt.mu.Unlock()
	sampled := n%sampleEvery == 0
	var start int64
	if sampled {
		start = h.tr.clock()
	}
	var frame []byte
	if grab {
		frame, _ = wire.Marshal(msg) // an unmarshalable message is just not captured
	}
	h.tr.tapCluster(msg)
	t0 := time.Now()
	h.inner.HandleMessage(src, msg)
	d := time.Since(t0)
	nt.mu.Lock()
	nt.inHandler = false
	nt.handlerNS += int64(d)
	if sampled {
		nt.handles = append(nt.handles, handleSpan{start, h.tr.clock()})
	}
	if frame != nil {
		nt.corpus = append(nt.corpus, frame)
	}
	nt.mu.Unlock()
}

// tapCluster counts the router's traffic as it passes the node's handler.
func (t *tracer) tapCluster(msg rt.Message) {
	env, ok := msg.(mux.Envelope)
	if !ok || env.Channel != cluster.ClusterChannel {
		return
	}
	status := byte(cluster.StatusOK)
	switch m := env.Msg.(type) {
	case cluster.MsgUpdateReq, cluster.MsgScanReq, cluster.MsgCutReq:
		t.routedReqs.Add(1)
		return
	case cluster.MsgUpdateResp:
		status = m.Status
	case cluster.MsgScanResp:
		status = m.Status
	case cluster.MsgCutResp:
		status = m.Status
	}
	if status == cluster.StatusStaleMap {
		t.staleRejects.Add(1)
	}
}

type tracedObject struct {
	inner engine.Engine
	batch engine.Batcher
	nt    *nodeTrace
	tr    *tracer
}

// wrapObject wraps the engine's client face and installs its observer.
func (t *tracer) wrapObject(i int, eng engine.Engine) svc.Object {
	if o, ok := eng.(engine.Observable); ok {
		o.SetObserver(nodeObserver{nt: t.nodes[i], tr: t})
	}
	b, _ := eng.(engine.Batcher)
	return &tracedObject{inner: eng, batch: b, nt: t.nodes[i], tr: t}
}

func (o *tracedObject) call(kind opKind, batch int, fn func() error) error {
	if !o.tr.measuring.Load() {
		return fn()
	}
	nt := o.nt
	start := o.tr.clock()
	nt.mu.Lock()
	idx := len(nt.calls)
	nt.calls = append(nt.calls, engCall{kind: kind, start: start, end: -1, batch: batch})
	nt.open = idx
	nt.mu.Unlock()
	err := fn()
	end := o.tr.clock()
	nt.mu.Lock()
	nt.calls[idx].end = end
	nt.open = -1
	nt.mu.Unlock()
	return err
}

func (o *tracedObject) Update(p []byte) error {
	return o.call(opUpdate, 1, func() error { return o.inner.Update(p) })
}

// UpdateBatch keeps svc's coalescing fast path: both engines measured
// here are Batchers, and svc picks the path by asserting this method.
func (o *tracedObject) UpdateBatch(ps [][]byte) error {
	return o.call(opUpdate, len(ps), func() error {
		if o.batch != nil {
			return o.batch.UpdateBatch(ps)
		}
		return o.inner.Update(ps[len(ps)-1])
	})
}

func (o *tracedObject) Scan() (snap [][]byte, err error) {
	err = o.call(opScan, 1, func() error {
		snap, err = o.inner.Scan()
		return err
	})
	return snap, err
}

type tracedFile struct {
	f  wal.File
	nt *nodeTrace
	tr *tracer
}

func (t *tracer) wrapFile(i int, f wal.File) wal.File {
	return &tracedFile{f: f, nt: t.nodes[i], tr: t}
}

func (f *tracedFile) record(sync bool, start int64, d time.Duration, n int) {
	if !f.tr.measuring.Load() {
		return
	}
	nt := f.nt
	end := f.tr.clock()
	nt.mu.Lock()
	ev := walEvent{sync: sync, start: start, end: end, ns: int64(d), bytes: n, call: nt.open}
	if nt.inHandler {
		ev.call = -1
	}
	nt.wals = append(nt.wals, ev)
	nt.mu.Unlock()
}

func (f *tracedFile) Write(p []byte) (int, error) {
	start, t0 := f.tr.clock(), time.Now()
	n, err := f.f.Write(p)
	f.record(false, start, time.Since(t0), n)
	return n, err
}

func (f *tracedFile) Sync() error {
	start, t0 := f.tr.clock(), time.Now()
	err := f.f.Sync()
	f.record(true, start, time.Since(t0), 0)
	return err
}

// ---- observers -------------------------------------------------------

// nodeObserver receives one node's op events: "svc.update"/"svc.scan"
// from the service front (admission to resolution) and "update"/"scan"
// with protocol phases from the engine.
type nodeObserver struct {
	nt *nodeTrace
	tr *tracer
}

func (o nodeObserver) OnMsg(rt.MsgEvent) {}

func (o nodeObserver) OnOp(e rt.OpEvent) {
	nt := o.nt
	now := int64(e.T) + o.tr.tickOffset
	measuring := o.tr.measuring.Load()
	nt.mu.Lock()
	defer nt.mu.Unlock()
	switch e.Op {
	case "svc.update", "svc.scan":
		kind := opUpdate
		if e.Op == "svc.scan" {
			kind = opScan
		}
		if e.Phase == rt.PhaseStart {
			// svc emits the start event from inside the admitting call,
			// so the op the generator is admitting right now is this one.
			nt.pending[e.ID] = svcReq{kind: kind, start: now, op: nt.admitting}
		} else if r, ok := nt.pending[e.ID]; ok && e.Phase == rt.PhaseEnd {
			delete(nt.pending, e.ID)
			if !measuring || r.start < o.tr.measureStart {
				return // a warm-up request
			}
			r.end = now
			if r.op >= 0 {
				nt.reqOfOp[r.op] = len(nt.reqs)
			}
			nt.reqs = append(nt.reqs, r)
		}
	default:
		if measuring {
			nt.phase(e.Phase, now)
		}
	}
}

// phase charges the time since the engine's previous event to the phase
// that was running. The phase-0 lattice operation keeps its own writeTag
// and eqWait buckets; everything from the first renewal marker to the end
// of the op (or to a borrow) is "renewal".
func (nt *nodeTrace) phase(p string, now int64) {
	if nt.phaseBucket != "" {
		nt.phaseUS[nt.phaseBucket] += now - nt.phaseLast
	}
	nt.phaseLast = now
	switch {
	case p == rt.PhaseStart:
		nt.phaseBucket, nt.inRenewal = "", false
	case p == rt.PhaseEnd:
		nt.phaseBucket = ""
	case p == "eqGood" || p == "eqNotGood":
	case p == "borrow":
		nt.phaseBucket, nt.inRenewal = "borrow", false
	case len(p) > 8 && p[:8] == "renewal:":
		nt.phaseBucket, nt.inRenewal = "renewal", true
	case nt.inRenewal:
		nt.phaseBucket = "renewal"
	default:
		nt.phaseBucket = p
	}
}

func (t *tracer) svcObserver(i int) rt.Observer { return nodeObserver{nt: t.nodes[i], tr: t} }

// msgObserver counts a backend's message traffic.
type msgObserver struct {
	t   *tracer
	sim bool
}

func (o msgObserver) OnOp(rt.OpEvent) {}

func (o msgObserver) OnMsg(e rt.MsgEvent) {
	if !o.t.measuring.Load() {
		return
	}
	switch {
	case e.Event == rt.MsgSend && o.sim:
		o.t.simSends.Add(1)
	case e.Event == rt.MsgSend:
		o.t.sends.Add(1)
		o.t.sendBytes.Add(int64(e.Bytes))
	case e.Event == rt.MsgCorrupt:
		o.t.corrupt.Add(1)
	}
}

func (t *tracer) transportObserver() rt.Observer { return msgObserver{t: t} }
func (t *tracer) simObserver() rt.Observer       { return msgObserver{t: t, sim: true} }

// ---- phase boundaries ------------------------------------------------

func sumStats(svcs []*svc.Service) svc.Stats {
	var out svc.Stats
	for _, s := range svcs {
		st := s.Stats()
		out.Updates += st.Updates
		out.Scans += st.Scans
		out.Rejected += st.Rejected
		out.ProtoUpdates += st.ProtoUpdates
		out.ProtoScans += st.ProtoScans
		out.WindowGrows += st.WindowGrows
		out.WindowShrinks += st.WindowShrinks
		if st.MaxBatch > out.MaxBatch {
			out.MaxBatch = st.MaxBatch
		}
	}
	return out
}

// beginMeasured starts recording: everything before it (the warm-up) is
// passed through untouched. On the simulator it is called once per world
// and the records of all worlds accumulate.
func (t *tracer) beginMeasured(svcs []*svc.Service) {
	for _, nt := range t.nodes {
		nt.mu.Lock()
		nt.phaseBucket = ""
		nt.mu.Unlock()
	}
	t.svcBefore = sumStats(svcs)
	t.measureStart = t.clock()
	t.measuring.Store(true)
}

func (t *tracer) endMeasured(svcs []*svc.Service, transportErrs int) {
	t.measuring.Store(false)
	a, b, d := sumStats(svcs), t.svcBefore, &t.svcDelta
	d.Updates += a.Updates - b.Updates
	d.Scans += a.Scans - b.Scans
	d.Rejected += a.Rejected - b.Rejected
	d.ProtoUpdates += a.ProtoUpdates - b.ProtoUpdates
	d.ProtoScans += a.ProtoScans - b.ProtoScans
	d.WindowGrows += a.WindowGrows - b.WindowGrows
	d.WindowShrinks += a.WindowShrinks - b.WindowShrinks
	if a.MaxBatch > d.MaxBatch {
		d.MaxBatch = a.MaxBatch
	}
	t.transportErrs += transportErrs
}

// ---- generator hooks -------------------------------------------------

// opIssue opens the op in the recorder. It takes the node's admission
// lock, released by opAdmitted, so that the recorder numbers a writer's
// updates in the order svc admits them: the checkers identify a value by
// its position in its writer's program order.
func (t *tracer) opIssue(i int, o op, l *opList, due time.Time) *history.PendingOp {
	t.admit[o.node].Lock()
	t.setAdmitting(int(o.node), i)
	now := t.clock()
	t.ops[i] = opTimes{due: now - int64(time.Since(due)/time.Microsecond), t0: now, node: o.node}
	if o.kind == opScan {
		return t.rec.BeginScanAs(int(o.node), i%issuers, rt.Ticks(now))
	}
	return t.rec.BeginUpdateAs(int(o.node), i%issuers, string(l.payload(i)), rt.Ticks(now))
}

func (t *tracer) opAdmitted(node int) {
	t.setAdmitting(node, -1)
	t.admit[node].Unlock()
}

// setAdmitting names the op whose admission into node's service front is
// in progress, so the front's start event can be tied to it exactly.
func (t *tracer) setAdmitting(node, i int) {
	nt := t.nodes[node]
	nt.mu.Lock()
	nt.admitting = i
	nt.mu.Unlock()
}

func (t *tracer) opDone(i int, pend *history.PendingOp, snap [][]byte) {
	now := t.clock()
	t.ops[i].t2 = now
	if snap != nil {
		pend.EndScan(harness.SnapStrings(snap), rt.Ticks(now))
	} else {
		pend.End(rt.Ticks(now))
	}
}

// simOp records a simulator session's op; the harness's OpRunner already
// fed the recorder. The simulator runs one process at a time, so
// setAdmitting around the call ties the op to its service request.
func (t *tracer) simOp(i, node int, v0, v1 int64) {
	t.ops[i] = opTimes{due: v0, t0: v0, t2: v1, node: int32(node)}
}

// clusterTopology prepares the keyed containment check.
func (t *tracer) clusterTopology(m cluster.ShardMap, keys []string) {
	t.keys, t.total, t.members = len(keys), m.NumNodes(), m.Members
	ring := m.Ring()
	t.shardOf = make([]int, len(keys))
	for k, key := range keys {
		t.shardOf[k] = ring.ShardFor(key)
	}
	t.doneInv = make([]atomic.Int64, len(keys)*t.total)
	t.doneAt = make([]atomic.Int64, len(t.ops))
	t.opNeed = make([][]int64, len(t.ops))
}

// contact is the shard member a router's first attempt goes to: itself
// when it is a member, else the member its own ID selects.
func (t *tracer) contact(router, shard int) int {
	ms := t.members[shard]
	for _, m := range ms {
		if m == router {
			return m
		}
	}
	return ms[router%len(ms)]
}

func (t *tracer) clusterIssue(i int, o op, due time.Time) {
	now := t.clock()
	t.ops[i].due = now - int64(time.Since(due)/time.Microsecond)
	t.ops[i].t0 = now
	if o.kind == opScan {
		need := make([]int64, len(t.doneInv))
		for j := range need {
			need[j] = t.doneInv[j].Load()
		}
		t.opNeedMu.Lock()
		t.opNeed[i] = need
		t.opNeedMu.Unlock()
	}
}

// clusterDone closes the op and, for a global scan, checks containment:
// for every (key, member) the cut must show a write at least as recent as
// the latest one that had completed before the scan was invoked. "As
// recent" is real-time order — the shown write Y is too old only if it
// completed before that write X was even invoked; two overlapping writes
// may land in either order. internal/monitor cannot be used here: it
// models one snapshot object, and a cut spans one object per shard whose
// segments are cumulative key maps.
func (t *tracer) clusterDone(i int, o op, l *opList, cut *cluster.Cut) {
	t.ops[i].t2 = t.clock()
	t.doneAt[i].Store(t.ops[i].t2)
	if cut == nil {
		slot := &t.doneInv[int(o.key)*t.total+t.contact(int(o.node), t.shardOf[o.key])]
		for inv := t.ops[i].t0; ; {
			cur := slot.Load()
			if cur >= inv || slot.CompareAndSwap(cur, inv) {
				return
			}
		}
	}
	t.opNeedMu.Lock()
	need := t.opNeed[i]
	t.opNeed[i] = nil
	t.opNeedMu.Unlock()
	shown := make(map[int]int64, 256) // key*total+member → completion time of the write shown
	for s, sc := range cut.Shards {
		for local, seg := range sc.Segments {
			member := t.members[s][local]
			for _, rec := range svc.DecodeRecords(seg) {
				k, ok := parseKey(rec.K)
				if !ok || k >= t.keys {
					t.problem("scan op %d: unknown key %q", i, rec.K)
					continue
				}
				y, ok := payloadOp(rec.V)
				if !ok || y >= len(t.ops) || l.ops[y].key != int32(k) {
					t.problem("scan op %d: key %s holds a value no update wrote", i, rec.K)
					continue
				}
				done := t.doneAt[y].Load()
				if done == 0 {
					done = 1 << 62 // still in flight: concurrent with everything
				}
				shown[k*t.total+member] = done
			}
		}
	}
	for j, inv := range need {
		if inv == 0 {
			continue
		}
		if done, ok := shown[j]; !ok || done < inv {
			t.problem("scan op %d misses a completed write of key %d via node %d", i, j/t.total, j%t.total)
		}
	}
}

func (t *tracer) problem(format string, args ...any) {
	t.opNeedMu.Lock()
	if len(t.problems) < 8 {
		t.problems = append(t.problems, fmt.Sprintf(format, args...))
	}
	t.opNeedMu.Unlock()
}

// ---- spans -----------------------------------------------------------

// spanRec is one span of the trace file. Parent is an index into the same
// list, -1 for a root; Op is the op index and Batch the size of the
// protocol batch the span served.
type spanRec struct {
	Name    string `json:"name"`
	StartUS int64  `json:"start_us"`
	EndUS   int64  `json:"end_us"`
	Parent  int    `json:"parent"`
	Op      int    `json:"op"`
	Batch   int    `json:"batch,omitempty"`
}

// selfTimes returns each span's self time: its duration minus the part of
// it that its children cover (overlapping children are not counted twice).
func selfTimes(spans []spanRec) []int64 {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		ks := kids[i]
		sort.Slice(ks, func(a, b int) bool { return spans[ks[a]].StartUS < spans[ks[b]].StartUS })
		covered, edge := int64(0), s.StartUS
		for _, k := range ks {
			lo, hi := spans[k].StartUS, spans[k].EndUS
			if lo < edge {
				lo = edge
			}
			if hi > s.EndUS {
				hi = s.EndUS
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = s.EndUS - s.StartUS - covered
	}
	return self
}

// lastWithin finds, among intervals sorted by end, the latest-ending one
// of the wanted kind that lies inside [lo, hi].
func lastWithin(n int, at func(int) (opKind, int64, int64), kind opKind, lo, hi int64) int {
	j := sort.Search(n, func(j int) bool { _, _, end := at(j); return end > hi }) - 1
	for steps := 0; j >= 0 && steps < 512; j, steps = j-1, steps+1 {
		k, start, end := at(j)
		if end < lo {
			break
		}
		if k == kind && start >= lo {
			return j
		}
	}
	return -1
}

func (nt *nodeTrace) reqAt(j int) (opKind, int64, int64) {
	return nt.reqs[j].kind, nt.reqs[j].start, nt.reqs[j].end
}

func (nt *nodeTrace) callAt(j int) (opKind, int64, int64) {
	return nt.calls[j].kind, nt.calls[j].start, nt.calls[j].end
}

// seal drops calls still open. Requests and calls were appended under
// the node's lock in completion order, which is what lastWithin needs.
func (nt *nodeTrace) seal() {
	calls := nt.calls[:0]
	remap := make([]int, len(nt.calls))
	for i, c := range nt.calls {
		remap[i] = -1
		if c.end >= 0 {
			remap[i] = len(calls)
			calls = append(calls, c)
		}
	}
	nt.calls = calls
	for i := range nt.wals {
		if c := nt.wals[i].call; c >= 0 && c < len(remap) {
			nt.wals[i].call = remap[c]
		}
	}
}

func clip(lo, hi, plo, phi int64) (int64, int64) {
	if lo < plo {
		lo = plo
	}
	if hi > phi {
		hi = phi
	}
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

// opSpans builds the span tree of op i: client.op ▸ [cluster.call ▸]
// svc.wait ▸ engine.call ▸ wal.write / wal.sync. The generator knows
// when the op was issued and completed; which service request and which
// engine call served it is exact where the generator admitted the op
// itself (see setAdmitting). A routed op is admitted inside the cluster
// node, so its request is inferred by containment in time on the nodes
// that could have served it (candidates), taking the latest-ending match:
// exact when its batch is the only one inside its interval, otherwise a
// request of the same kind that overlapped it. A global scan's child is
// the shard that finished last: the blocking part.
func (t *tracer) opSpans(spans []spanRec, i int, kind opKind, routed bool, candidates []int) []spanRec {
	ot := t.ops[i]
	root := len(spans)
	spans = append(spans, spanRec{Name: "client.op", StartUS: ot.due, EndUS: ot.t2, Parent: -1, Op: i})
	parent := root
	if routed {
		lo, hi := clip(ot.t0, ot.t2, ot.due, ot.t2)
		spans = append(spans, spanRec{Name: "cluster.call", StartUS: lo, EndUS: hi, Parent: root, Op: i})
		parent = len(spans) - 1
	}
	var best *nodeTrace
	bestReq := -1
	for _, c := range candidates {
		nt := t.nodes[c]
		if j, ok := nt.reqOfOp[i]; ok {
			best, bestReq = nt, j
			break
		}
		if j := lastWithin(len(nt.reqs), nt.reqAt, kind, ot.t0, ot.t2); j >= 0 && (best == nil || nt.reqs[j].end > best.reqs[bestReq].end) {
			best, bestReq = nt, j
		}
	}
	if best == nil {
		return spans
	}
	rq := best.reqs[bestReq]
	spans = append(spans, spanRec{Name: "svc.wait", StartUS: rq.start, EndUS: rq.end, Parent: parent, Op: i})
	wait := len(spans) - 1
	c := lastWithin(len(best.calls), best.callAt, kind, rq.start, rq.end)
	if c < 0 {
		return spans
	}
	call := best.calls[c]
	spans = append(spans, spanRec{Name: "engine.call", StartUS: call.start, EndUS: call.end, Parent: wait, Op: i, Batch: call.batch})
	eng := len(spans) - 1
	for _, ev := range best.wals {
		if ev.call != c {
			continue
		}
		name := "wal.write"
		if ev.sync {
			name = "wal.sync"
		}
		lo, hi := clip(ev.start, ev.end, call.start, call.end)
		spans = append(spans, spanRec{Name: name, StartUS: lo, EndUS: hi, Parent: eng, Op: i})
	}
	return spans
}
