// Package approx implements asynchronous approximate agreement on top of
// an atomic snapshot object — one of the paper's listed ASO applications
// ("Prior works also use ASO for solving approximate agreement",
// Section I, reference [13]).
//
// Every node starts with a real-valued input from a known range and must
// decide a value such that (i) all decisions are within ε of each other
// and (ii) every decision lies within the range of the inputs. With crash
// faults and asynchrony, exact agreement is impossible (FLP), but
// approximate agreement is solvable — and an *atomic* snapshot makes the
// classic midpoint iteration sound:
//
// In each round every node writes its current estimate and scans until it
// sees at least n-f round-r estimates. Because scans of an atomic
// snapshot are totally ordered by containment, the round-r views form a
// chain; every view contains the smallest view's values, so every
// midpoint lies within half the round's diameter of every other — the
// diameter at least halves each round. After R = ⌈log2((hi-lo)/ε)⌉ rounds
// all estimates are within ε.
//
// Run over the SSO instead, the nesting argument breaks; the package
// requires an atomic object (obj is an mpsnap.Object; it must be an ASO).
package approx

import (
	"errors"
	"fmt"
	"math"

	"mpsnap/internal/segment"
)

// vals is the codec of a node's segment: its estimate per round.
var vals = segment.List(segment.Float64, 8)

// Config parameterizes one agreement instance.
type Config struct {
	// Lo and Hi bound every node's input (agreed upon a priori, as is
	// standard for approximate agreement). Deciders stay within them.
	Lo, Hi float64
	// Epsilon is the agreement precision (> 0).
	Epsilon float64
	// N and F describe the cluster (n > 2f); F is the wait quorum's
	// slack: each round waits for n-f round-r estimates.
	N, F int
}

// Rounds returns the number of halving rounds the configuration needs.
func (c Config) Rounds() int {
	span := c.Hi - c.Lo
	if span <= c.Epsilon {
		return 0
	}
	return int(math.Ceil(math.Log2(span / c.Epsilon)))
}

func (c Config) validate() error {
	if c.Epsilon <= 0 {
		return errors.New("approx: epsilon must be > 0")
	}
	if c.Hi < c.Lo {
		return errors.New("approx: empty input range")
	}
	if c.N <= 2*c.F || c.N <= 0 {
		return fmt.Errorf("approx: need n > 2f, got n=%d f=%d", c.N, c.F)
	}
	return nil
}

// Agree runs the protocol for one node: value is this node's input
// (clamped into [Lo, Hi]). It returns the node's decision. Agree performs
// Rounds()+1 updates and a scan loop per round; every participating
// correct node must call Agree for the rounds to fill (at most one
// concurrent Agree per node).
func Agree(obj segment.Object, cfg Config, value float64) (float64, error) {
	if err := cfg.validate(); err != nil {
		return 0, err
	}
	seg := segment.NewOwn(obj, -1, "approx", vals)
	v := math.Min(math.Max(value, cfg.Lo), cfg.Hi)
	if err := seg.Put([]float64{v}); err != nil {
		return 0, err
	}
	rounds := cfg.Rounds()
	for r := 0; r < rounds; r++ {
		lo, hi, err := collectRound(seg, cfg, r)
		if err != nil {
			return 0, err
		}
		v = (lo + hi) / 2
		if err := seg.Put(append(seg.Last(), v)); err != nil {
			return 0, err
		}
	}
	return v, nil
}

// collectRound scans until at least n-f nodes expose a round-r estimate
// and returns the min and max of the estimates seen.
func collectRound(seg *segment.Own[[]float64], cfg Config, r int) (lo, hi float64, err error) {
	for {
		segs, err := seg.Scan()
		if err != nil {
			return 0, 0, err
		}
		count := 0
		lo, hi = math.Inf(1), math.Inf(-1)
		for _, st := range segs {
			if st != nil && r < len(*st) {
				count++
				lo = math.Min(lo, (*st)[r])
				hi = math.Max(hi, (*st)[r])
			}
		}
		if count >= cfg.N-cfg.F {
			return lo, hi, nil
		}
		// Not enough round-r estimates yet: the next scan reflects new
		// updates (each scan is a fresh quorum operation, so this loop
		// advances with the system rather than spinning locally).
	}
}
