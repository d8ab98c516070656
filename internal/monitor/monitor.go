// Package monitor is a streaming checker for the paper's (A1)-(A4)
// conditions: it consumes operations as they complete — hooked into a
// history.Recorder as its Sink, no full-history buffering — and validates
// each finished SCAN against a sliding window of recent state. It shares
// the condition machinery (Chain, Frontier, Completions) with the offline
// checker in internal/history, so the two cannot drift; equivalence and
// fuzz tests in this package pin that down.
//
// The monitor trades completeness for boundedness: state older than the
// window is pruned in directions that can only *under*-state what a scan
// must contain, so a violation report is always trustworthy (no false
// positives, proven against the offline checker by FuzzMonitorWindow)
// while a violation whose evidence has aged out of the window may go
// unreported. Section 12 of DESIGN.md spells out what is and is not
// detectable online.
package monitor

import (
	"fmt"
	"sync"

	"mpsnap/internal/history"
	"mpsnap/internal/rt"
)

// Violation classes, one per monitored invariant.
const (
	// ClassValidity: a scan returned a value no registered update wrote.
	ClassValidity = "validity"
	// ClassSelfInclusion: a scan misses an update its own client completed
	// before invoking the scan (per-client program order, immune to
	// cross-node clock skew).
	ClassSelfInclusion = "self-inclusion"
	// ClassContainment: (A2) a scan misses an update that completed,
	// on any node, strictly before the scan was invoked.
	ClassContainment = "containment"
	// ClassComparability: (A1) two scans in the window returned
	// incomparable bases.
	ClassComparability = "comparability"
	// ClassFrontier: (A3) a scan's base regresses below the frontier —
	// the pointwise max of bases of scans completed before it was invoked.
	ClassFrontier = "frontier-regression"
	// ClassPrefixClosure: (A4) a scan includes an update but misses
	// operations that completed before that update was invoked.
	ClassPrefixClosure = "prefix-closure"
)

// Violation is one detected invariant breach.
type Violation struct {
	Class string `json:"class"`
	// Op is the completed scan whose check failed.
	Op opJSON `json:"op"`
	// Base is the scan's resolved base (nil for validity violations).
	Base history.Base `json:"base,omitempty"`
	// Need is the requirement the base failed to meet (A2/A4/self-
	// inclusion: minimum base; frontier: the frontier at invocation).
	Need history.Base `json:"need,omitempty"`
	// Conflict is, for comparability violations, the incomparable base
	// of the earlier scan in the window.
	Conflict history.Base `json:"conflict,omitempty"`
	// Detail is a human-readable one-liner.
	Detail string `json:"detail"`
}

func (v Violation) String() string { return fmt.Sprintf("(%s) %s", v.Class, v.Detail) }

// Config parameterizes a Monitor.
type Config struct {
	// N is the number of nodes (segments).
	N int
	// Window is the sliding-window width in ticks. Completed state older
	// than Window behind the newest completion is pruned (safely: pruning
	// can hide old violations, never invent new ones). 0 means unbounded —
	// the monitor then checks exactly the offline conditions.
	Window rt.Ticks
	// MaxViolations caps the retained violation list (the count in Stats
	// keeps running). 0 means DefaultMaxViolations.
	MaxViolations int
	// TranscriptCap bounds the window transcript retained for dumps.
	// 0 means DefaultTranscriptCap.
	TranscriptCap int
	// OnViolation, when set, is called for each recorded violation, after
	// the monitor's own lock is released (so the callback may call
	// Violations, Stats or WriteDump; it must not call back into the
	// recorder the monitor is attached to).
	OnViolation func(Violation)
}

// Defaults for Config zero values.
const (
	DefaultWindow        = 100 * rt.TicksPerD
	DefaultMaxViolations = 16
	DefaultTranscriptCap = 512
)

// Stats are running counters, readable at any time.
type Stats struct {
	Updates    int            `json:"updates"`    // completed updates consumed
	Scans      int            `json:"scans"`      // completed scans checked
	Pending    int            `json:"pending"`    // begun but not yet completed
	Skipped    int            `json:"skipped"`    // scans skipped (evidence pruned)
	Violations int            `json:"violations"` // total found (not capped)
	Evicted    int            `json:"evicted"`    // scans aged out of the window
	ByClass    map[string]int `json:"byClass,omitempty"`
}

// writerState is the per-writer registry feeding the shared condition
// machinery: which value is which seq, when each seq was invoked, and the
// completion staircase answering (A2)/(A4) requirements.
type writerState struct {
	vals     map[string]int      // value → 1-based seq
	invBySeq map[int]rt.Ticks    // seq → invocation time
	compl    history.Completions // completion staircase (shared with offline)
	pruned   int                 // highest seq whose value/inv were pruned
}

// clientKey identifies one client of one node.
type clientKey struct{ node, client int }

// scanRec is a window entry: a completed scan and its resolved base.
type scanRec struct {
	op   history.Op
	base history.Base
}

// Monitor is the streaming checker. It implements history.Sink; attach
// with rec.SetSink(m). All methods are safe for concurrent use.
type Monitor struct {
	cfg Config

	mu         sync.Mutex
	writers    []*writerState
	own        map[clientKey]*history.Completions // per-client own-update staircases
	chain      history.Chain                      // (A1) over window scans
	frontier   history.Frontier                   // (A3) cumulative scan frontier
	window     []scanRec                          // completed scans in window, completion order
	transcript []history.Op                       // recent completed ops, ring for dumps
	trStart    int                                // ring start index
	latest     rt.Ticks                           // newest completion time seen
	stats      Stats
	violations []Violation
	pruneWalks int // value-map walks done by prune (cost counter, pinned by tests)
}

// New creates a monitor for an n-node object.
func New(cfg Config) *Monitor {
	if cfg.MaxViolations == 0 {
		cfg.MaxViolations = DefaultMaxViolations
	}
	if cfg.TranscriptCap == 0 {
		cfg.TranscriptCap = DefaultTranscriptCap
	}
	m := &Monitor{
		cfg:     cfg,
		writers: make([]*writerState, cfg.N),
		own:     make(map[clientKey]*history.Completions),
	}
	for i := range m.writers {
		m.writers[i] = &writerState{vals: make(map[string]int), invBySeq: make(map[int]rt.Ticks)}
	}
	m.stats.ByClass = make(map[string]int)
	return m
}

// OpBegan implements history.Sink: updates register their value and
// invocation time immediately (a concurrent scan may legally return a
// still-in-flight update's value); scans register nothing until they
// complete.
func (m *Monitor) OpBegan(op history.Op) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.stats.Pending++
	if op.Type != history.Update || op.Node < 0 || op.Node >= len(m.writers) {
		return
	}
	w := m.writers[op.Node]
	w.vals[op.Arg] = op.Seq
	w.invBySeq[op.Seq] = op.Inv
}

// OpCompleted implements history.Sink: updates feed the completion
// staircases; scans are checked against every monitored invariant, then
// join the window. Violation callbacks fire after the lock is released.
func (m *Monitor) OpCompleted(op history.Op) {
	m.mu.Lock()
	var fresh []Violation
	m.stats.Pending--
	if op.Resp > m.latest {
		m.latest = op.Resp
	}
	switch op.Type {
	case history.Update:
		m.stats.Updates++
		if op.Node >= 0 && op.Node < len(m.writers) {
			m.writers[op.Node].compl.Add(op.Resp, op.Seq)
			k := clientKey{op.Node, op.Client}
			oc := m.own[k]
			if oc == nil {
				oc = &history.Completions{}
				m.own[k] = oc
			}
			oc.Add(op.Resp, op.Seq)
		}
	case history.Scan:
		m.stats.Scans++
		fresh = m.checkScan(op)
	}
	m.record(op)
	m.prune()
	cb := m.cfg.OnViolation
	m.mu.Unlock()
	if cb != nil {
		for _, v := range fresh {
			cb(v)
		}
	}
}

// checkScan runs the per-scan invariant battery. Called with m.mu held;
// returns the violations it recorded.
func (m *Monitor) checkScan(op history.Op) []Violation {
	var out []Violation
	add := func(v Violation) {
		out = append(out, v)
		m.stats.Violations++
		m.stats.ByClass[v.Class]++
		if len(m.violations) < m.cfg.MaxViolations {
			m.violations = append(m.violations, v)
		}
	}
	// Resolve the base from the returned vector. An unknown value is a
	// hard validity violation only while the writer's registry is intact;
	// once pruning has dropped old values the scan is skipped instead
	// (the value may be ancient rather than forged).
	base := make(history.Base, len(m.writers))
	for i, w := range m.writers {
		if i >= len(op.Snap) {
			add(Violation{Class: ClassValidity, Op: opToJSON(op),
				Detail: fmt.Sprintf("scan returned %d segments, want %d", len(op.Snap), len(m.writers))})
			return out
		}
		v := op.Snap[i]
		if v == history.NoValue {
			continue
		}
		seq, ok := w.vals[v]
		if !ok {
			if w.pruned > 0 {
				m.stats.Skipped++
				return out
			}
			add(Violation{Class: ClassValidity, Op: opToJSON(op),
				Detail: fmt.Sprintf("segment %d value %q was never written by node %d", i, v, i)})
			return out
		}
		base[i] = seq
	}

	// Self-inclusion: the scanning client's own completed updates (strictly
	// before the scan's invocation, per its own clock) must be included.
	if oc := m.own[clientKey{op.Node, op.Client}]; oc != nil && op.Node < len(base) {
		if need := oc.Before(op.Inv); base[op.Node] < need {
			nb := make(history.Base, len(base))
			nb[op.Node] = need
			add(Violation{Class: ClassSelfInclusion, Op: opToJSON(op), Base: base, Need: nb,
				Detail: fmt.Sprintf("node %d client %d sees %d own updates, completed ≥ %d before invoking", op.Node, op.Client, base[op.Node], need)})
		}
	}

	// (A2) containment: every update completed strictly before the scan's
	// invocation, on any node, must be included.
	need := make(history.Base, len(m.writers))
	for j, w := range m.writers {
		need[j] = w.compl.Before(op.Inv)
	}
	if !need.LE(base) {
		add(Violation{Class: ClassContainment, Op: opToJSON(op), Base: base, Need: append(history.Base(nil), need...),
			Detail: fmt.Sprintf("base %v misses updates completed before invocation (needs ≥ %v)", base, need)})
	}

	// (A1) comparability against every scan in the window.
	if conflict, ok := m.chain.Insert(base); !ok {
		add(Violation{Class: ClassComparability, Op: opToJSON(op), Base: base, Conflict: conflict,
			Detail: fmt.Sprintf("base %v incomparable with base %v of a scan in the window", base, conflict)})
	}

	// (A3) frontier non-regression: the base must dominate the pointwise
	// max of bases of scans completed strictly before this invocation.
	if req := m.frontier.At(op.Inv); req != nil && !req.LE(base) {
		add(Violation{Class: ClassFrontier, Op: opToJSON(op), Base: base, Need: append(history.Base(nil), req...),
			Detail: fmt.Sprintf("base %v regresses below frontier %v of earlier scans", base, req)})
	}
	m.frontier.Add(op.Resp, base)

	// (A4) prefix closure: for each writer's last included update, every
	// operation completed before that update's invocation must be in the
	// base too. Updates whose invocation time aged out are skipped.
	for j, w := range m.writers {
		if base[j] == 0 || base[j] <= w.pruned {
			continue
		}
		uinv, ok := w.invBySeq[base[j]]
		if !ok {
			continue
		}
		un := make(history.Base, len(m.writers))
		for k, wk := range m.writers {
			un[k] = wk.compl.Before(uinv)
		}
		if !un.LE(base) {
			add(Violation{Class: ClassPrefixClosure, Op: opToJSON(op), Base: base, Need: un,
				Detail: fmt.Sprintf("base %v contains update %d of node %d but misses its predecessors (needs ≥ %v)", base, base[j], j, un)})
			break
		}
	}

	m.window = append(m.window, scanRec{op: op, base: base})
	return out
}

// record appends op to the bounded transcript ring.
func (m *Monitor) record(op history.Op) {
	if len(m.transcript) < m.cfg.TranscriptCap {
		m.transcript = append(m.transcript, op)
		return
	}
	m.transcript[m.trStart] = op
	m.trStart = (m.trStart + 1) % len(m.transcript)
}

// prune evicts state older than the window behind the newest completion.
// Every pruning direction under-states future requirements, so stale
// state can only cause missed violations, never spurious ones.
func (m *Monitor) prune() {
	if m.cfg.Window <= 0 || m.latest < m.cfg.Window {
		return
	}
	cutoff := m.latest - m.cfg.Window
	for len(m.window) > 0 && m.window[0].op.Resp < cutoff {
		m.chain.Remove(m.window[0].base)
		m.window = m.window[1:]
		m.stats.Evicted++
	}
	m.frontier.PruneBefore(cutoff)
	for _, w := range m.writers {
		w.compl.PruneBefore(cutoff)
		// Walk the value map only when the floor has advanced past what
		// is already pruned (everything below floor goes; floor stays).
		if floor := w.compl.Before(cutoff); floor-1 > w.pruned {
			m.pruneWalks++
			for v, seq := range w.vals {
				if seq < floor {
					delete(w.vals, v)
					delete(w.invBySeq, seq)
				}
			}
			w.pruned = floor - 1
		}
	}
	for _, oc := range m.own {
		oc.PruneBefore(cutoff)
	}
}

// Violations returns the recorded violations (capped at MaxViolations;
// Stats().Violations is the uncapped count).
func (m *Monitor) Violations() []Violation {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]Violation(nil), m.violations...)
}

// OK reports whether no violation has been found so far.
func (m *Monitor) OK() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats.Violations == 0
}

// Stats returns a snapshot of the running counters.
func (m *Monitor) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.stats
	s.ByClass = make(map[string]int, len(m.stats.ByClass))
	for k, v := range m.stats.ByClass {
		s.ByClass[k] = v
	}
	return s
}
