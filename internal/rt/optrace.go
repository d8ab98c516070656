package rt

// OpTrace emits one node's operation-lifecycle events: Start opens an
// op's event stream, Phase marks a protocol phase inside it, End closes it
// with the op's latency. Every engine holds one. A node has one sequential
// client thread (the rt model) and only that thread starts ops, crosses
// phases and ends ops, so the fields need no synchronization; the observer
// itself must be concurrency-safe (events from different nodes
// interleave). Without an observer every method is a counter bump at
// most, and nothing here allocates either way.
type OpTrace struct {
	obs   Observer
	clock Runtime
	node  int
	seq   int64  // per-node op sequence: the ID of the latest op
	op    string // the op in flight; "" outside an op
	start Ticks
}

// NewOpTrace returns the tracer for the node running on r.
func NewOpTrace(r Runtime) OpTrace { return OpTrace{clock: r, node: r.ID()} }

// SetObserver installs the observer; install it before the first
// operation. nil disables tracing.
func (t *OpTrace) SetObserver(o Observer) { t.obs = o }

// Start opens op's event stream and makes it current for Phase marks.
func (t *OpTrace) Start(op string) {
	t.seq++
	if t.obs == nil {
		return
	}
	t.op, t.start = op, t.clock.Now()
	t.obs.OnOp(OpEvent{T: t.start, Node: t.node, ID: t.seq, Op: op, Phase: PhaseStart})
}

// Phase marks a protocol phase of the current op. It is a no-op outside
// an op — e.g. EQ-ASO's RefreshView called by the SSO, which reports its
// own operations.
func (t *OpTrace) Phase(name string) {
	if t.obs == nil || t.op == "" {
		return
	}
	t.obs.OnOp(OpEvent{T: t.clock.Now(), Node: t.node, ID: t.seq, Op: t.op, Phase: name})
}

// End closes the current op's event stream with its latency; a non-nil
// err marks the op failed.
func (t *OpTrace) End(err error) {
	if t.obs == nil || t.op == "" {
		return
	}
	now := t.clock.Now()
	t.obs.OnOp(OpEvent{
		T: now, Node: t.node, ID: t.seq, Op: t.op,
		Phase: PhaseEnd, Dur: now - t.start, Err: err != nil,
	})
	t.op = ""
}
