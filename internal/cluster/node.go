package cluster

import (
	"errors"
	"fmt"

	"mpsnap/internal/mux"
	"mpsnap/internal/rt"
	"mpsnap/internal/svc"
)

// ClusterChannel is the mux channel the routing layer runs on; shard
// engines run on ShardChannel(s). Every node of the topology binds both.
const ClusterChannel = "cluster"

// ShardChannel names shard s's engine channel.
func ShardChannel(s int) string { return fmt.Sprintf("shard/%d", s) }

// DefaultTimeout is the per-request routing timeout when Config.Timeout
// is 0: generous against worst measured protocol latencies (≤ ~10D) plus
// chaos delay spikes.
const DefaultTimeout = 20 * rt.TicksPerD

// errTimeout marks a routed request whose contact never answered; the
// router retries the next shard member.
var errTimeout = errors.New("cluster: routed request timed out")

// ErrNoContact is returned when every routing attempt for an operation
// was exhausted (all shard members unresponsive or erroring).
var ErrNoContact = errors.New("cluster: no responsive shard contact")

// Config parameterizes one node of the cluster topology.
type Config struct {
	// Map is the topology's shard map (Validate must pass, and every
	// member must be a node of the runtime). It is fixed for the node's
	// life: the node builds an engine + service for every shard it is a
	// member of and routes every key by this map.
	Map ShardMap
	// NewEngine builds one shard engine on its shard-local runtime,
	// returning the engine's message handler and client face. The same
	// constructor must be used on every member. Required.
	NewEngine func(shard int, r rt.Runtime) (rt.Handler, svc.Object)
	// SvcOptions configures each owned shard's service front. Coalesce is
	// reserved (the node installs the cumulative key-map merger).
	SvcOptions svc.Options
	// SeedSegment, if set, returns the node's recovered cumulative key
	// segment for a shard (nil for none). A restarted node must resume
	// its router key map from the last segment it published, or its next
	// routed write would publish a fresh map and erase every key this
	// member served before the crash from the shard snapshot.
	SeedSegment func(shard int) []byte
	// Health, if set, orders routing contacts healthy-first and receives
	// timeout suspicions. Typically one shared Health fed by the
	// backend's message observer.
	Health *Health
	// Timeout bounds each routed request (default DefaultTimeout).
	Timeout rt.Ticks
}

// shardState is one owned shard: its service front plus this node's
// cumulative key map (only the shard's svc worker calls merge, so it needs
// no lock).
type shardState struct {
	shard int
	svc   *svc.Service
	cum   map[string][]byte
	order []string
}

// merge folds a batch of routed key writes into the cumulative map and
// returns the full map as the committed segment payload. The map must be
// cumulative — a snapshot only keeps each writer's latest segment, so a
// key written in an earlier batch survives only by being re-committed
// here.
func (st *shardState) merge(payloads [][]byte) []byte {
	for _, p := range payloads {
		for _, rec := range svc.DecodeRecords(p) {
			if _, seen := st.cum[rec.K]; !seen {
				st.order = append(st.order, rec.K)
			}
			st.cum[rec.K] = rec.V
		}
	}
	recs := make([]svc.Record, 0, len(st.order))
	for _, k := range st.order {
		recs = append(recs, svc.Record{K: k, V: st.cum[k]})
	}
	return svc.EncodeRecords(recs)
}

// pendingCall is one request awaiting its answer: a routed request's
// response, or an owned shard's contribution to a cut. After await it is
// done either way; a nil resp then means nobody answered in time.
type pendingCall struct {
	id   uint64 // key in Node.calls (0: a local cut, answered by its hook)
	done bool
	resp rt.Message
}

// fill answers the call unless it was answered or given up on already
// (atomicity domain).
func (pc *pendingCall) fill(resp rt.Message) {
	if !pc.done {
		pc.resp, pc.done = resp, true
	}
}

// Node is one physical node's cluster stack: the mux routing its shard
// engines and the cluster channel, the owned shards' service fronts, and
// the client API (Update/Scan/GlobalScan) that routes by the shard map the
// node was built with. A routed request is admitted into the owning shard's
// service queue by the message handler and answered by that shard's svc
// worker (see handleCluster): the node has no thread of its own.
//
// Threads: the embedding application must run, per node, one thread per
// owned shard calling Serve on that shard's service (see Services).
// Update/Scan/GlobalScan may then be called from any number of client
// threads.
type Node struct {
	rtm rt.Runtime
	mx  *mux.Mux
	cl  rt.Runtime // the "cluster" channel's runtime (global IDs)
	cfg Config

	// Fixed at construction, read without the atomicity domain.
	ring     *Ring
	owned    map[int]*shardState
	attempts int // routing attempts per operation (see NewNode)

	// Guarded by the node's atomicity domain.
	calls   map[uint64]*pendingCall
	nextReq uint64
	closed  bool
}

// NewNode builds the node's cluster stack on r and returns it. Register
// Handler() as the node's message handler before traffic flows.
func NewNode(r rt.Runtime, cfg Config) (*Node, error) {
	if err := cfg.Map.Validate(); err != nil {
		return nil, err
	}
	if nodes := cfg.Map.NumNodes(); nodes > r.N() {
		return nil, fmt.Errorf("cluster: shard map names node %d, topology has %d", nodes-1, r.N())
	}
	if cfg.NewEngine == nil {
		return nil, fmt.Errorf("cluster: Config.NewEngine is required")
	}
	if cfg.SvcOptions.Coalesce != nil {
		return nil, fmt.Errorf("cluster: Config.SvcOptions.Coalesce is reserved by the node")
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = DefaultTimeout
	}
	// Routing tries every member of the largest shard plus two spare
	// rounds. The first covers pickContact's healthy-first skip landing on
	// the member just tried. The second is there because it was measured:
	// with one spare round the failed routed updates on the nightly
	// `-shards 4 -shard-crash 1` chaos seeds 42/1337/90210 went from
	// 3/3/5 to 6/6/10 (EXPERIMENTS.md, "One placement").
	attempts := 0
	for _, ms := range cfg.Map.Members {
		attempts = max(attempts, len(ms)+2)
	}
	n := &Node{
		rtm:      r,
		mx:       mux.New(r),
		cfg:      cfg,
		ring:     cfg.Map.Ring(),
		owned:    make(map[int]*shardState),
		attempts: attempts,
		calls:    make(map[uint64]*pendingCall),
		// Seed request IDs from the clock: a restarted incarnation must
		// not reuse IDs the dead one has responses in flight for, or a
		// stale response would complete a fresh call of another type.
		nextReq: uint64(r.Now()) << 24,
	}
	n.cl = n.mx.Channel(ClusterChannel)
	if err := n.mx.Bind(ClusterChannel, rt.HandlerFunc(n.handleCluster)); err != nil {
		return nil, err
	}
	for _, s := range cfg.Map.OwnedBy(r.ID()) {
		if err := n.bindShard(s); err != nil {
			return nil, err
		}
	}
	return n, nil
}

// bindShard builds shard s's engine on its shard-local runtime and its
// service front, binding the shard's mux channel.
func (n *Node) bindShard(s int) error {
	m := n.cfg.Map
	members := m.Members[s]
	local := m.LocalID(s, n.rtm.ID())
	name := ShardChannel(s)
	srt := newShardRuntime(n.mx.Channel(name), members, local, m.F)
	h, obj := n.cfg.NewEngine(s, srt)
	if err := n.mx.Bind(name, remapHandler{members: members, inner: h}); err != nil {
		return err
	}
	st := &shardState{shard: s, cum: make(map[string][]byte)}
	if n.cfg.SeedSegment != nil {
		for _, rec := range svc.DecodeRecords(n.cfg.SeedSegment(s)) {
			st.order = append(st.order, rec.K)
			st.cum[rec.K] = rec.V
		}
	}
	opts := n.cfg.SvcOptions
	opts.Coalesce = st.merge
	st.svc = svc.New(srt, obj, opts)
	n.owned[s] = st
	return nil
}

// Handler returns the node's top-level message handler (the mux).
func (n *Node) Handler() rt.Handler { return n.mx }

// Services returns the owned shards' service fronts in shard order; the
// embedding application must run each one's Serve on a dedicated thread.
func (n *Node) Services() []*svc.Service {
	shards := n.cfg.Map.OwnedBy(n.rtm.ID())
	out := make([]*svc.Service, 0, len(shards))
	for _, s := range shards {
		out = append(out, n.owned[s].svc)
	}
	return out
}

// Close stops admission everywhere: owned services drain what they have
// admitted (routed requests included), new routed requests are refused.
func (n *Node) Close() {
	n.rtm.Atomic(func() { n.closed = true })
	for _, st := range n.owned {
		st.svc.Close()
	}
}

// pickContact chooses a member of shard s to route to: spread by the
// caller's node ID so different routers load different members, advanced
// by the attempt number on retry, skipping suspects while any member is
// believed healthy.
func (n *Node) pickContact(s, attempt int) int {
	members := n.cfg.Map.Members[s]
	base := n.rtm.ID() + attempt
	if n.cfg.Health != nil {
		for i := 0; i < len(members); i++ {
			cand := members[(base+i)%len(members)]
			if !n.cfg.Health.Suspected(cand) {
				return cand
			}
		}
	}
	return members[base%len(members)]
}

// routed runs one keyed operation against the key's owning shard: local
// commits it through this node's own service when the node is a member
// (no network hop); otherwise the request build makes goes to a shard
// member, retrying across members on a timeout or a refusal. status reads
// the reply (ok = it is the operation's response type).
func (n *Node) routed(op, key string, local func(st *shardState) error,
	build func(req uint64, s int) rt.Message, status func(resp rt.Message) (code byte, ok bool)) error {
	s := n.ring.ShardFor(key)
	if st := n.owned[s]; st != nil {
		return local(st)
	}
	var lastErr error
	for attempt := 0; attempt < n.attempts; attempt++ {
		contact := n.pickContact(s, attempt)
		resp, err := n.call(contact, func(req uint64) rt.Message { return build(req, s) })
		if err == errTimeout {
			n.suspect(contact)
			lastErr = err
			continue
		}
		if err != nil {
			return err
		}
		code, ok := status(resp)
		switch {
		case !ok:
			lastErr = fmt.Errorf("cluster: unexpected %s from node %d", resp.Kind(), contact)
		case code == StatusOK:
			return nil
		default:
			lastErr = fmt.Errorf("cluster: %s refused by node %d", op, contact)
		}
	}
	return fmt.Errorf("%w: %s %q: %v", ErrNoContact, op, key, lastErr)
}

// Update writes key=val on the key's owning shard (see routed).
func (n *Node) Update(key string, val []byte) error {
	return n.routed("update", key,
		func(st *shardState) error {
			return st.svc.Update(svc.EncodeRecords([]svc.Record{{K: key, V: val}}))
		},
		func(req uint64, s int) rt.Message {
			return MsgUpdateReq{Req: req, Shard: s, Key: key, Val: val}
		},
		func(resp rt.Message) (byte, bool) {
			r, ok := resp.(MsgUpdateResp)
			return r.Status, ok
		})
}

// Scan snapshots the key's owning shard and returns the key's per-member
// value vector (one entry per shard member, nil = that member's segment
// never wrote the key), from one linearizable shard snapshot.
func (n *Node) Scan(key string) ([][]byte, error) {
	var vals [][]byte
	err := n.routed("scan", key,
		func(st *shardState) error {
			snap, err := st.svc.Scan()
			vals = extractKey(snap, key)
			return err
		},
		func(req uint64, s int) rt.Message {
			return MsgScanReq{Req: req, Shard: s, Key: key}
		},
		func(resp rt.Message) (byte, bool) {
			r, ok := resp.(MsgScanResp)
			vals = r.Vals
			return r.Status, ok
		})
	if err != nil {
		return nil, err
	}
	return vals, nil
}

// extractKey projects a shard snapshot onto one key.
func extractKey(snap [][]byte, key string) [][]byte {
	out := make([][]byte, len(snap))
	for node, seg := range snap {
		for _, rec := range svc.DecodeRecords(seg) {
			if rec.K == key {
				out[node] = rec.V
				break
			}
		}
	}
	return out
}

// suspect reports a timed-out contact to the health tracker.
func (n *Node) suspect(id int) {
	if n.cfg.Health != nil {
		n.cfg.Health.Suspect(id)
	}
}

// beginCall allocates a pending call and builds its request under the
// atomicity domain.
func (n *Node) beginCall(build func(req uint64) rt.Message) (*pendingCall, rt.Message) {
	pc := &pendingCall{}
	var msg rt.Message
	n.rtm.Atomic(func() {
		n.nextReq++
		pc.id = n.nextReq
		n.calls[pc.id] = pc
		msg = build(pc.id)
	})
	return pc, msg
}

// await blocks until every call is answered or the routing timeout
// passes, then gives up on the unanswered ones: their entries go, so a
// late response finds none and is dropped.
func (n *Node) await(label string, calls ...*pendingCall) error {
	deadline := n.rtm.Now() + n.cfg.Timeout
	return n.rtm.WaitUntilThen(label,
		func() bool {
			if n.rtm.Now() >= deadline {
				return true
			}
			for _, pc := range calls {
				if !pc.done {
					return false
				}
			}
			return true
		},
		func() {
			for _, pc := range calls {
				if !pc.done {
					pc.done = true
					delete(n.calls, pc.id)
				}
			}
		})
}

// call sends one routed request and waits for its response or timeout.
func (n *Node) call(dst int, build func(req uint64) rt.Message) (rt.Message, error) {
	pc, msg := n.beginCall(build)
	n.cl.Send(dst, msg)
	if err := n.await("cluster: await "+msg.Kind(), pc); err != nil {
		return nil, err
	}
	if pc.resp == nil {
		return nil, errTimeout
	}
	return pc.resp, nil
}

// handleCluster is the "cluster" channel handler. A routed request is
// served where it arrives: admit vets it and puts it straight into the
// owning shard's service queue, that shard's svc worker resolves it, and
// the answer below — run by the worker in the resolving critical section —
// sends the response. A response completes this node's outbound call.
func (n *Node) handleCluster(src int, msg rt.Message) {
	switch m := msg.(type) {
	case MsgUpdateReq:
		n.admit(m.Shard, &svc.Record{K: m.Key, V: m.Val}, func(r MsgCutResp) {
			n.cl.Send(src, MsgUpdateResp{Req: m.Req, Status: r.Status})
		})
	case MsgScanReq:
		n.admit(m.Shard, nil, func(r MsgCutResp) {
			n.cl.Send(src, MsgScanResp{Req: m.Req, Status: r.Status, Vals: extractKey(r.Segments, m.Key)})
		})
	case MsgCutReq:
		n.admit(m.Shard, nil, func(r MsgCutResp) {
			r.Req, r.Frontier = m.Req, m.Frontier
			n.cl.Send(src, r)
		})
	case MsgUpdateResp:
		n.complete(m.Req, msg)
	case MsgScanResp:
		n.complete(m.Req, msg)
	case MsgCutResp:
		n.complete(m.Req, msg)
	}
}

// admit admits one request for shard into the shard's service queue:
// write is the keyed update, nil for a scan. answer runs exactly once with
// the outcome in cut-response form (Req and Frontier are the caller's to
// set): at once on a refusal (StatusErr: the node is closed, does not host
// the shard, or the shard's queue is full, draining or its worker dead —
// the caller moves to the next member); otherwise from the svc worker, in
// the critical section that resolves the request. Must run in the
// atomicity domain; never blocks.
func (n *Node) admit(shard int, write *svc.Record, answer func(MsgCutResp)) {
	r := MsgCutResp{Shard: shard, ScanStart: n.rtm.Now()}
	st := n.owned[shard]
	if n.closed || st == nil {
		r.Status = StatusErr
		answer(r)
		return
	}
	then := func(snap [][]byte, err error) {
		if err != nil {
			r.Status = StatusErr
		}
		r.Segments, r.ScanEnd = snap, n.rtm.Now()
		answer(r)
	}
	var err error
	if write != nil {
		err = st.svc.AdmitUpdate(svc.EncodeRecords([]svc.Record{*write}), then)
	} else {
		r.Pending, err = st.svc.AdmitScan(then)
	}
	if err != nil {
		r.Status = StatusErr
		answer(r)
	}
}

// complete resolves an outbound call (late responses after a timeout are
// dropped — the call entry is gone).
func (n *Node) complete(id uint64, msg rt.Message) {
	if pc, ok := n.calls[id]; ok {
		pc.fill(msg)
		delete(n.calls, id)
	}
}

// ServeRouter is inert, kept for the frozen benchmark/ (ROADMAP item 1): it returns once the node is closed or crashed.
func (n *Node) ServeRouter() error {
	return n.rtm.WaitUntilThen("cluster: closed", func() bool { return n.closed }, func() {})
}
