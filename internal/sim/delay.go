package sim

import (
	"math/rand"

	"mpsnap/internal/rt"
)

// DelayModel chooses the delivery delay of each message. Returned delays
// are clamped by the simulator to [1, D]. The model is consulted only for
// messages between distinct nodes (self-delivery takes 1 tick).
type DelayModel interface {
	Delay(src, dst int, kind string, now rt.Ticks, r *rand.Rand) rt.Ticks
}

// Constant delivers every message after exactly Ticks. Constant{D} is the
// paper's extreme case "every message suffers delay D".
type Constant struct{ Ticks rt.Ticks }

// Delay implements DelayModel.
func (c Constant) Delay(src, dst int, kind string, now rt.Ticks, r *rand.Rand) rt.Ticks {
	return c.Ticks
}

// Uniform draws delays uniformly from [Min, Max].
type Uniform struct{ Min, Max rt.Ticks }

// Delay implements DelayModel.
func (u Uniform) Delay(src, dst int, kind string, now rt.Ticks, r *rand.Rand) rt.Ticks {
	if u.Max <= u.Min {
		return u.Min
	}
	return u.Min + rt.Ticks(r.Int63n(int64(u.Max-u.Min+1)))
}

// DelayFunc adapts a function to the DelayModel interface, for scripted
// scenarios (e.g. the Figure 2 execution).
type DelayFunc func(src, dst int, kind string, now rt.Ticks, r *rand.Rand) rt.Ticks

// Delay implements DelayModel.
func (f DelayFunc) Delay(src, dst int, kind string, now rt.Ticks, r *rand.Rand) rt.Ticks {
	return f(src, dst, kind, now, r)
}

// SlowLinks delays messages on the links in Slow by SlowDelay and all other
// messages by FastDelay. Keys are [2]int{src, dst}.
type SlowLinks struct {
	Slow      map[[2]int]bool
	SlowDelay rt.Ticks
	FastDelay rt.Ticks
}

// Delay implements DelayModel.
func (s SlowLinks) Delay(src, dst int, kind string, now rt.Ticks, r *rand.Rand) rt.Ticks {
	if s.Slow[[2]int{src, dst}] {
		return s.SlowDelay
	}
	return s.FastDelay
}
