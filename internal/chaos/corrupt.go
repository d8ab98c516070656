package chaos

import (
	"encoding/binary"
	"math/rand"

	"mpsnap/internal/rt"
	"mpsnap/internal/sim"
	"mpsnap/internal/wire"
)

// corrupter realizes the schedule's wire-corruption windows on both
// backends: inside an active window it frames the victim message through
// internal/wire, mutates the frame bytes (a bit flip, a truncation, or an
// oversized length prefix), and decodes the result.
//
//   - Mutants that fail to decode are dropped: on a real deployment the
//     receiver closes the connection, so the message is lost — the same
//     failure envelope as a loss window, which the harness already
//     absorbs (completed operations must still check; stuck ones are
//     crash-aborted and recorded as pending).
//   - Mutants that still decode are delivered only when deliverMutants
//     is set (the Byzantine algorithm, whose checker budget covers ≤ f
//     misbehaving sources); for crash-only algorithms a decodable mutant
//     is Byzantine behaviour the model excludes, so it is dropped too.
//
// Both backends serialize calls (the sim on its scheduler goroutine, the
// wall world under the faults' mutex), so the corrupter does no locking
// of its own.
type corrupter struct {
	rng            *rand.Rand
	deliverMutants bool
	windows        map[[2]int]float64

	attempted int64 // messages hit by a window
	killed    int64 // mutants that failed to decode (dropped)
	mutated   int64 // decodable mutants delivered
}

func newCorrupter(seed int64, deliverMutants bool) *corrupter {
	return &corrupter{
		rng:            rand.New(rand.NewSource(seed)),
		deliverMutants: deliverMutants,
		windows:        make(map[[2]int]float64),
	}
}

var _ sim.WireFault = (*corrupter)(nil)

// OnWire implements sim.WireFault.
func (c *corrupter) OnWire(now rt.Ticks, src, dst int, msg rt.Message) (rt.Message, bool) {
	p := c.windows[[2]int{src, dst}]
	if p == 0 || c.rng.Float64() >= p {
		return nil, false
	}
	return c.corrupt(msg)
}

// corrupt mutates one message at the frame level and classifies the
// outcome. Messages of unregistered types cannot be framed; treat them
// as killed (they could never have crossed a real wire anyway).
func (c *corrupter) corrupt(msg rt.Message) (rt.Message, bool) {
	c.attempted++
	frame, err := wire.MarshalFrame(msg, 0)
	if err != nil {
		c.killed++
		return nil, true
	}
	switch c.rng.Intn(3) {
	case 0: // flip 1–4 bits anywhere in the frame
		for k := c.rng.Intn(4); k >= 0; k-- {
			i := c.rng.Intn(len(frame))
			frame[i] ^= 1 << uint(c.rng.Intn(8))
		}
	case 1: // truncate below the declared length
		frame = frame[:c.rng.Intn(len(frame))]
	case 2: // corrupt length prefix far beyond the cap
		binary.BigEndian.PutUint32(frame[1:], uint32(wire.DefaultMaxFrame+1+c.rng.Intn(1<<16)))
	}
	m, err := wire.UnmarshalFrame(frame, 0)
	if err != nil || !c.deliverMutants {
		c.killed++
		return nil, true
	}
	c.mutated++
	return m, false
}
