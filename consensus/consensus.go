// Package consensus implements randomized binary consensus on top of an
// atomic snapshot object — the paper lists randomized consensus among the
// classic ASO applications (Section I, references [4], [5]).
//
// Deterministic asynchronous consensus is impossible with even one crash
// (FLP), so the protocol is randomized, in the style of Ben-Or adapted to
// snapshot segments: each phase has a report step and a proposal step.
//
//	phase r:
//	  write report b_r = current preference; scan until ≥ n-f phase-r
//	  reports are visible; propose v if a strict majority (> n/2) of ALL
//	  nodes reported v, else propose ⊥;
//	  write the proposal; scan until ≥ n-f phase-r proposals are visible;
//	  if ≥ f+1 proposals carry v → decide v;
//	  else if ≥ 1 proposal carries v → adopt v;
//	  else flip a fair local coin.
//
// Safety is deterministic: two non-⊥ proposals of one phase would each
// need > n/2 reports, and — because atomic scans are totally ordered by
// containment — the smaller report view is contained in the larger, so
// the majorities overlap within n nodes and the proposals coincide. A
// decision's f+1 proposals intersect every (n-f)-sized proposal view
// (f+1 + n-f > n), so every other node adopts the decided value and
// decides in the next phase. Termination holds with probability 1 (local
// coins eventually align); the expected phase count is exponential in n
// in the worst case — this package is an application demonstration, not a
// high-performance consensus.
//
// Propose runs one Instance in a node's segment of obj, an mpsnap.Object
// that must be atomic (an ASO); package rsm runs one Instance per log
// slot, sweep and candidate, all in one segment.
package consensus

import (
	"errors"
	"fmt"
	"math/rand"

	"mpsnap/internal/segment"
	"mpsnap/internal/wire"
)

// A Record's proposal is ⊥ (noProposal) or not made yet (unset).
const (
	noProposal = -1
	unset      = -2
)

// Record is one node's activity in one phase of an Instance.
type Record struct {
	Report   int // 0 or 1
	Proposal int // 0, 1, -1 (⊥), or -2 while the report step runs
}

// Records is the wire codec of one node's records of one instance.
var Records = segment.List(segment.Codec[Record]{
	Put: func(b *wire.Buffer, r Record) { b.PutVarint(int64(r.Report)); b.PutVarint(int64(r.Proposal)) },
	Get: func(d *wire.Decoder) Record { return Record{Report: d.Int(), Proposal: d.Int()} },
}, 2)

// Instance is one run of the protocol over records that live in snapshot
// segments. It does not own a segment: Publish and Collect map its
// records into whatever a node's segment holds, so one segment can carry
// one instance (Propose) or unboundedly many (package rsm).
type Instance struct {
	// N nodes, resilience F (n > 2f).
	N, F int
	// Rand drives the local coin.
	Rand *rand.Rand
	// Publish writes this node's records (one UPDATE).
	Publish func(mine []Record) error
	// Collect scans and returns every node's records (nil for a node
	// with none); stop ends the run at once, as when a decision was
	// published elsewhere.
	Collect func() (recs [][]Record, stop bool, err error)
}

// Run runs phases from input bit until a decision, a stop or maxPhases
// phases. It returns the decided bit, or -1 when Collect stopped it.
func (in *Instance) Run(bit, maxPhases int) (int, error) {
	var mine []Record
	pref := bit
	for phase := 0; phase < maxPhases; phase++ {
		// Report step.
		mine = append(mine, Record{Report: pref, Proposal: unset})
		if err := in.Publish(mine); err != nil {
			return 0, err
		}
		reports, stop, err := in.count(phase, func(r Record) (int, bool) { return r.Report, true })
		if err != nil || stop {
			return -1, err
		}
		proposal := noProposal
		for v := 0; v <= 1; v++ {
			if reports[v] > in.N/2 {
				proposal = v
			}
		}
		// Proposal step.
		mine[phase].Proposal = proposal
		if err := in.Publish(mine); err != nil {
			return 0, err
		}
		proposals, stop, err := in.count(phase, func(r Record) (int, bool) { return r.Proposal, r.Proposal != unset })
		if err != nil || stop {
			return -1, err
		}
		switch {
		case proposals[0] >= in.F+1:
			return 0, nil
		case proposals[1] >= in.F+1:
			return 1, nil
		case proposals[0] > 0:
			pref = 0
		case proposals[1] > 0:
			pref = 1
		default:
			pref = in.Rand.Intn(2)
		}
	}
	return 0, ErrTooManyPhases
}

// count collects until at least n-f nodes expose a phase-`phase` record
// accepted by get, returning per-value counts (index 0, 1; ⊥ ignored).
func (in *Instance) count(phase int, get func(Record) (int, bool)) ([2]int, bool, error) {
	for {
		recs, stop, err := in.Collect()
		if err != nil || stop {
			return [2]int{}, stop, err
		}
		var counts [2]int
		seen := 0
		for _, rs := range recs {
			if phase >= len(rs) {
				continue
			}
			v, ok := get(rs[phase])
			if !ok {
				continue
			}
			seen++
			if v == 0 || v == 1 {
				counts[v]++
			}
		}
		if seen >= in.N-in.F {
			return counts, false, nil
		}
	}
}

// state is one node's segment: its phase records and decision.
type state struct {
	Phases  []Record
	Decided int // -1 until decided
}

var stateCodec = segment.Codec[state]{
	Put: func(b *wire.Buffer, s state) { b.PutVarint(int64(s.Decided)); Records.Put(b, s.Phases) },
	Get: func(d *wire.Decoder) state { return state{Decided: d.Int(), Phases: Records.Get(d)} },
}

// Config parameterizes one consensus instance.
type Config struct {
	// N nodes, resilience F (n > 2f).
	N, F int
	// MaxPhases aborts with an error after this many phases (0 = 10000);
	// a safety valve for tests, far above typical convergence.
	MaxPhases int
	// Rand drives the local coin; required (pass a seeded source for
	// reproducible simulations).
	Rand *rand.Rand
}

func (c Config) validate() error {
	if c.N <= 2*c.F || c.N <= 0 {
		return fmt.Errorf("consensus: need n > 2f, got n=%d f=%d", c.N, c.F)
	}
	if c.Rand == nil {
		return errors.New("consensus: Config.Rand is required")
	}
	return nil
}

// ErrTooManyPhases is returned when MaxPhases is exceeded.
var ErrTooManyPhases = errors.New("consensus: phase budget exceeded")

// Propose runs binary consensus for one node with input bit (0 or 1) and
// returns the decided bit. Every correct node must call Propose once.
func Propose(obj segment.Object, cfg Config, bit int) (int, error) {
	if err := cfg.validate(); err != nil {
		return 0, err
	}
	if bit != 0 && bit != 1 {
		return 0, fmt.Errorf("consensus: input %d is not a bit", bit)
	}
	maxPhases := cfg.MaxPhases
	if maxPhases == 0 {
		maxPhases = 10000
	}
	seg := segment.NewOwn(obj, -1, "consensus", stateCodec)
	decided := -1
	in := Instance{N: cfg.N, F: cfg.F, Rand: cfg.Rand,
		Publish: func(mine []Record) error { return seg.Put(state{Phases: mine, Decided: -1}) },
		Collect: func() ([][]Record, bool, error) {
			segs, err := seg.Scan()
			if err != nil {
				return nil, false, err
			}
			recs := make([][]Record, len(segs))
			for i, st := range segs {
				if st != nil {
					recs[i] = st.Phases
					if st.Decided >= 0 {
						decided = st.Decided
					}
				}
			}
			return recs, decided >= 0, nil
		},
	}
	v, err := in.Run(bit, maxPhases)
	if err != nil {
		return 0, err
	}
	if v < 0 {
		// Someone already decided: their f+1 proposals from an earlier
		// phase guarantee safety of adopting directly.
		v = decided
	}
	// Publish the decision, so laggards can short-circuit.
	if err := seg.Put(state{Phases: seg.Last().Phases, Decided: v}); err != nil {
		return 0, err
	}
	return v, nil
}
