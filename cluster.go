package mpsnap

import (
	"fmt"
	"io"

	"mpsnap/internal/harness"
	"mpsnap/internal/history"
	"mpsnap/internal/mux"
	"mpsnap/internal/rt"
	"mpsnap/internal/sim"
)

// D is one maximum-message-delay unit of virtual time.
const D = rt.TicksPerD

// Ticks is virtual time (D ticks per maximum message delay).
type Ticks = rt.Ticks

// DelayKind selects how per-message delays are drawn.
type DelayKind int

// Delay models.
const (
	// DelayUniform draws delays uniformly from (0, D] (the default).
	DelayUniform DelayKind = iota
	// DelayConstant delivers every message after exactly D — the
	// paper's extreme case for time-complexity analysis.
	DelayConstant
)

// CrashSpec schedules a crash: node Node fails at time At.
type CrashSpec struct {
	Node int
	At   Ticks
}

// ExtraObject declares an additional, independent snapshot object hosted
// on the same cluster (multiplexed over the same nodes and channels).
type ExtraObject struct {
	// Name identifies the object; retrieve it with Client.Extra(name).
	Name string
	// Algorithm selects its implementation; default EQASO.
	Algorithm Algorithm
}

// Config parameterizes a simulated cluster.
type Config struct {
	// N is the number of nodes; F the resilience bound (n > 2f, or
	// n > 3f for Byzantine algorithms).
	N, F int
	// Algorithm selects the implementation; default EQASO.
	Algorithm Algorithm
	// Seed makes the run reproducible.
	Seed int64
	// Delay selects the delay model.
	Delay DelayKind
	// Crashes schedules crash failures.
	Crashes []CrashSpec
	// Extra declares additional objects multiplexed over the same
	// cluster (e.g. a CRDT store next to a termination detector). Only
	// the primary object's operations enter the checked history.
	Extra []ExtraObject
}

// SimCluster is a simulated deployment of one snapshot object: spawn
// client scripts with Client, execute with Run, then inspect the checked
// history and statistics.
type SimCluster struct {
	cfg    Config
	inner  *harness.Cluster
	hist   *history.History
	extras []map[string]Object // per node, by extra-object name
}

// NewSimCluster builds a simulated cluster.
func NewSimCluster(cfg Config) (*SimCluster, error) {
	if cfg.Algorithm == "" {
		cfg.Algorithm = EQASO
	}
	if cfg.N <= 0 || cfg.N <= 2*cfg.F {
		return nil, fmt.Errorf("mpsnap: need n > 2f > 0-resilient config, got n=%d f=%d", cfg.N, cfg.F)
	}
	if cfg.Algorithm.RequiresNGreaterThan3F() && cfg.N <= 3*cfg.F {
		return nil, fmt.Errorf("mpsnap: algorithm %q needs n > 3f, got n=%d f=%d", cfg.Algorithm, cfg.N, cfg.F)
	}
	for _, ex := range cfg.Extra {
		if ex.Name == "" {
			return nil, fmt.Errorf("mpsnap: extra object needs a name")
		}
		alg := ex.Algorithm
		if alg == "" {
			alg = EQASO
		}
		if alg.RequiresNGreaterThan3F() && cfg.N <= 3*cfg.F {
			return nil, fmt.Errorf("mpsnap: extra object %q (%s) needs n > 3f", ex.Name, alg)
		}
	}
	simCfg := sim.Config{N: cfg.N, F: cfg.F, Seed: cfg.Seed}
	if cfg.Delay == DelayConstant {
		simCfg.Delay = sim.Constant{Ticks: D}
	}
	var buildErr error
	extras := make([]map[string]Object, cfg.N)
	c := harness.Build(simCfg, func(r rt.Runtime) (rt.Handler, harness.Object) {
		if len(cfg.Extra) == 0 {
			h, obj, err := NewNode(cfg.Algorithm, r)
			if err != nil {
				buildErr = err
			}
			return h, obj
		}
		// Multi-object node: multiplex the primary plus every extra.
		m := mux.New(r)
		h, obj, err := NewNode(cfg.Algorithm, m.Channel("primary"))
		if err != nil {
			buildErr = err
			return m, obj
		}
		if err := m.Bind("primary", h); err != nil {
			buildErr = err
			return m, obj
		}
		byName := make(map[string]Object, len(cfg.Extra))
		for _, ex := range cfg.Extra {
			alg := ex.Algorithm
			if alg == "" {
				alg = EQASO
			}
			eh, eobj, err := NewNode(alg, m.Channel("x:"+ex.Name))
			if err != nil {
				buildErr = err
				return m, obj
			}
			if err := m.Bind("x:"+ex.Name, eh); err != nil {
				buildErr = err
				return m, obj
			}
			byName[ex.Name] = eobj
		}
		extras[r.ID()] = byName
		return m, obj
	})
	if buildErr != nil {
		return nil, buildErr
	}
	for _, cr := range cfg.Crashes {
		if cr.Node < 0 || cr.Node >= cfg.N {
			return nil, fmt.Errorf("mpsnap: crash spec for unknown node %d", cr.Node)
		}
		c.W.CrashAt(cr.Node, cr.At)
	}
	return &SimCluster{cfg: cfg, inner: c, extras: extras}, nil
}

// Client is a node's sequential client thread inside the simulation.
type Client struct {
	op      *harness.OpRunner
	cluster *SimCluster
}

// Extra returns the node's endpoint of the named extra object (declared
// in Config.Extra); nil if no such object exists. Like Raw, operations on
// it are not recorded in the checked history. Each extra object must
// still be driven by at most one operation at a time per node.
func (c *Client) Extra(name string) Object {
	byName := c.cluster.extras[c.op.Node()]
	if byName == nil {
		return nil
	}
	return byName[name]
}

// Node returns the client's node ID.
func (c *Client) Node() int { return c.op.Node() }

// Update writes payload into the node's segment. Payloads written by one
// node should be distinct if the history is to be checked afterwards (the
// paper's uniqueness assumption).
func (c *Client) Update(payload []byte) error {
	return c.op.UpdateValue(string(payload))
}

// Scan returns all segments; nil marks a never-written segment.
func (c *Client) Scan() ([][]byte, error) {
	snap, err := c.op.Scan()
	if err != nil {
		return nil, err
	}
	out := make([][]byte, len(snap))
	for i, s := range snap {
		if s != history.NoValue {
			out[i] = []byte(s)
		}
	}
	return out, nil
}

// Raw returns the node's unrecorded snapshot object. Operations through
// it do not enter the checked history — applications that encode
// non-unique payloads (CRDT states, logs) should use it.
func (c *Client) Raw() Object { return c.op.Object() }

// Sleep suspends the client for d ticks of virtual time.
func (c *Client) Sleep(d Ticks) error { return c.op.P.Sleep(d) }

// Now returns the current virtual time.
func (c *Client) Now() Ticks { return c.op.P.Now() }

// Client registers a client script for node; scripts run when Run is
// called. Operations on a crashed node return an error; scripts should
// stop on error.
func (s *SimCluster) Client(node int, script func(c *Client)) {
	s.inner.Client(node, func(o *harness.OpRunner) { script(&Client{op: o, cluster: s}) })
}

// Crash crashes a node at time t (may also be set up front via Config).
func (s *SimCluster) Crash(node int, t Ticks) { s.inner.W.CrashAt(node, t) }

// Run executes the simulation to quiescence. It may be called once.
func (s *SimCluster) Run() error {
	h, err := s.inner.Run()
	s.hist = h
	return err
}

// Check verifies the recorded history against the appropriate consistency
// condition: linearizability via the paper's tight conditions (A1)-(A4)
// for atomic algorithms, sequential consistency for the SSO variants. It
// returns nil when the history is consistent.
func (s *SimCluster) Check() error {
	if s.hist == nil {
		return fmt.Errorf("mpsnap: Check before Run")
	}
	var rep *history.Report
	if s.cfg.Algorithm.Atomic() {
		rep = s.hist.CheckLinearizable()
	} else {
		rep = s.hist.CheckSequentiallyConsistent()
	}
	if !rep.OK {
		return fmt.Errorf("mpsnap: history violates consistency (%d violations; first: %s)",
			len(rep.Violations), rep.Violations[0])
	}
	return nil
}

// Stats summarizes the run.
type Stats struct {
	// VirtualTime is the simulation end time in D units.
	VirtualTime float64
	// Messages is the total number of messages sent.
	Messages int64
	// Operations counts completed operations.
	Operations int
	// WorstUpdateD / WorstScanD are worst-case latencies in D units.
	WorstUpdateD, WorstScanD float64
	// MeanUpdateD / MeanScanD are mean latencies in D units.
	MeanUpdateD, MeanScanD float64
}

// DumpHistory writes the recorded history as JSON (valid after Run); load
// it back with the aso sim tool's -check flag, or via internal/history's
// LoadJSON, to re-check or render it offline.
func (s *SimCluster) DumpHistory(w io.Writer) error {
	if s.hist == nil {
		return fmt.Errorf("mpsnap: DumpHistory before Run")
	}
	return s.hist.DumpJSON(w)
}

// RenderHistory draws the recorded operations as an ASCII space-time
// diagram in the style of the paper's Figure 1 (valid after Run). cols is
// the diagram width in characters.
func (s *SimCluster) RenderHistory(cols int) string {
	if s.hist == nil {
		return "(no history: Run first)"
	}
	return history.RenderGantt(s.hist, cols)
}

// Trace installs a message/crash observer on the simulator (install
// before Run). The callback receives one line per event.
func (s *SimCluster) Trace(fn func(line string)) {
	s.inner.W.SetTracer(func(ev sim.TraceEvent) {
		switch ev.Kind {
		case "crash":
			fn(fmt.Sprintf("t=%8.3fD CRASH node %d", ev.T.DUnits(), ev.Src))
		case "send":
			fn(fmt.Sprintf("t=%8.3fD %d→%d %s", ev.T.DUnits(), ev.Src, ev.Dst, ev.Msg))
		case "deliver":
			fn(fmt.Sprintf("t=%8.3fD %d⇒%d %s", ev.T.DUnits(), ev.Src, ev.Dst, ev.Msg))
		}
	})
}

// Stats returns run statistics (valid after Run).
func (s *SimCluster) Stats() Stats {
	ws := s.inner.W.Stats()
	out := Stats{
		VirtualTime: ws.Now.DUnits(),
		Messages:    ws.MsgsTotal,
	}
	if s.hist != nil {
		l := harness.Latencies(s.hist)
		out.Operations = l.Count
		out.WorstUpdateD, out.WorstScanD = l.WorstUpdate, l.WorstScan
		out.MeanUpdateD, out.MeanScanD = l.MeanUpdate, l.MeanScan
	}
	return out
}
