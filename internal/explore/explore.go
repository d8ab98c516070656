// Package explore is a bounded-exhaustive schedule explorer (a stateless
// model checker) for the simulator: it systematically enumerates the
// message-delivery orders of a scenario's first Depth scheduling decisions
// — rather than sampling them with random delays — and re-verifies the
// scenario under every schedule.
//
// Exploration is replay-based: each execution rebuilds the scenario from
// scratch with a sequencer that forces a chosen prefix of decisions and
// takes the first eligible event afterwards. Because the simulator is
// deterministic given the choice sequence, the search walks the schedule
// tree depth-first with an odometer over recorded branching widths.
//
// The scenarios are the rows of one table (Scenarios), crossed with every
// registered engine and the atomic one-shot (Objects) by Explore. This is
// how the repository demonstrates, for small configurations, that the
// engines' guarantees hold under *every* early schedule — and that the
// paper's one-shot warm-up sketch (Section III-C) genuinely needs the
// "typical quorum techniques": the explorer finds its counterexample
// schedule in milliseconds (see the tests).
package explore

import (
	"fmt"

	"mpsnap/internal/sim"
)

// Options bounds the search.
type Options struct {
	// Depth is the number of initial scheduling decisions explored
	// exhaustively; later decisions take the default (first eligible).
	// Explore reads 0 as the scenario's Depth.
	Depth int
	// MaxRuns caps the number of executions (0 = 1,000,000).
	MaxRuns int
}

// Result summarizes a completed exploration.
type Result struct {
	// Runs is the number of schedules executed.
	Runs int
	// Truncated is true if MaxRuns stopped the search early.
	Truncated bool
}

// Violation is returned when a schedule falsifies the scenario.
type Violation struct {
	// Schedule is the choice prefix that reproduces the failure.
	Schedule []int
	// Err is the scenario's verification error.
	Err error
}

func (v *Violation) Error() string {
	return fmt.Sprintf("explore: schedule %v: %v", v.Schedule, v.Err)
}

func (v *Violation) Unwrap() error { return v.Err }

// Sequencer is the controlled sim.Sequencer handed to each execution.
type Sequencer struct {
	prefix []int
	widths []int
	step   int
}

// Next implements sim.Sequencer.
func (s *Sequencer) Next(eligible []sim.EventInfo) int {
	w := len(eligible)
	s.widths = append(s.widths, w)
	i := s.step
	s.step++
	if i < len(s.prefix) {
		ch := s.prefix[i]
		if ch >= w {
			// Should not happen for deterministic scenarios; clamp
			// defensively so replay cannot panic.
			ch = w - 1
		}
		return ch
	}
	return 0
}

// Run executes runOne under every schedule of the bounded tree. runOne
// must build a fresh execution each call, install the given sequencer via
// sim.Config.Sequencer, run it, and return a non-nil error if verification
// fails. Run returns a *Violation for the first failing schedule, or the
// exploration result.
func Run(opts Options, runOne func(s sim.Sequencer) error) (Result, error) {
	if opts.MaxRuns <= 0 {
		opts.MaxRuns = 1_000_000
	}
	var res Result
	prefix := []int{}
	for {
		if res.Runs >= opts.MaxRuns {
			res.Truncated = true
			return res, nil
		}
		seq := &Sequencer{prefix: prefix}
		err := runOne(seq)
		res.Runs++
		if err != nil {
			return res, &Violation{Schedule: append([]int(nil), prefix...), Err: err}
		}
		// Odometer step over the explored depth: find the deepest
		// position whose choice can be incremented given this run's
		// observed branching widths.
		limit := opts.Depth
		if len(seq.widths) < limit {
			limit = len(seq.widths)
		}
		v := make([]int, limit)
		copy(v, prefix)
		i := limit - 1
		for i >= 0 {
			if v[i]+1 < seq.widths[i] {
				v[i]++
				v = v[:i+1]
				break
			}
			i--
		}
		if i < 0 {
			return res, nil // tree exhausted
		}
		prefix = v
	}
}
