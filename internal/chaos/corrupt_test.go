package chaos

import (
	"math/rand"
	"reflect"
	"testing"

	"mpsnap/internal/rt"
	"mpsnap/internal/wire"
)

// corruptProbe is a registered test-local message so corrupter behaviour
// is observable without depending on any algorithm's message shapes.
type corruptProbe struct {
	Seq     int
	Payload []byte
}

func (corruptProbe) Kind() string { return "corruptProbe" }

func init() {
	wire.Register(wire.Codec{
		Tag: wire.TestTagBase + 1, Proto: corruptProbe{},
		Encode: func(b *wire.Buffer, m rt.Message) {
			msg := m.(corruptProbe)
			b.PutInt(msg.Seq)
			b.PutBytes(msg.Payload)
		},
		Decode: func(d *wire.Decoder) (rt.Message, error) {
			return corruptProbe{Seq: d.Int(), Payload: d.Bytes()}, d.Err()
		},
		Gen: func(rng *rand.Rand) rt.Message {
			return corruptProbe{Seq: rng.Intn(1 << 16), Payload: wire.GenPayload(rng)}
		},
	})
}

// TestGenerateCorruptBackwardCompat: enabling corrupt windows must not
// perturb any other fault's RNG draws — a seed's crash, partition, drop,
// and spike events are identical with and without CorruptWindows.
func TestGenerateCorruptBackwardCompat(t *testing.T) {
	base := defaultMix()
	withCorrupt := base
	withCorrupt.CorruptWindows = 3
	for seed := int64(1); seed <= 5; seed++ {
		plain := generate(seed, 5, 2, 60*rt.TicksPerD, base)
		mixed := generate(seed, 5, 2, 60*rt.TicksPerD, withCorrupt)
		var kept []Event
		corrupt := 0
		srcs := map[int]bool{}
		for _, ev := range mixed.Events {
			if ev.Kind == EvCorruptOn || ev.Kind == EvCorruptOff {
				corrupt++
				srcs[ev.Src] = true
				continue
			}
			kept = append(kept, ev)
		}
		if corrupt != 2*withCorrupt.CorruptWindows {
			t.Fatalf("seed %d: %d corrupt events, want %d", seed, corrupt, 2*withCorrupt.CorruptWindows)
		}
		if len(srcs) > 2 {
			t.Fatalf("seed %d: corrupt sources %v exceed the f=2 budget", seed, srcs)
		}
		if !reflect.DeepEqual(kept, plain.Events) {
			t.Fatalf("seed %d: non-corrupt events changed when corruption was enabled:\nplain: %+v\nmixed: %+v",
				seed, plain.Events, kept)
		}
	}
}

// TestGenerateCorruptNeedsFaultBudget: with f=0 there is no fault budget
// to attribute Byzantine bytes to, so no corrupt events are generated.
func TestGenerateCorruptNeedsFaultBudget(t *testing.T) {
	mix := defaultMix()
	mix.CorruptWindows = 3
	s := generate(1, 5, 0, 60*rt.TicksPerD, mix)
	for _, ev := range s.Events {
		if ev.Kind == EvCorruptOn || ev.Kind == EvCorruptOff {
			t.Fatalf("f=0 schedule contains %s", ev)
		}
	}
}

// TestCorrupterOutcomes: every message hit by a window is either killed
// or delivered as a decodable mutant; crash-only mode never delivers.
func TestCorrupterOutcomes(t *testing.T) {
	gen := rand.New(rand.NewSource(7))
	probe := func() rt.Message {
		return corruptProbe{Seq: gen.Intn(1 << 16), Payload: wire.GenPayload(gen)}
	}

	crashOnly := newCorrupter(1, false)
	crashOnly.windows[[2]int{0, 1}] = 1.0
	for i := 0; i < 300; i++ {
		m, drop := crashOnly.OnWire(0, 0, 1, probe())
		if !drop || m != nil {
			t.Fatalf("crash-only corrupter delivered a mutant (m=%v drop=%v)", m, drop)
		}
	}
	if crashOnly.attempted != 300 || crashOnly.killed != 300 || crashOnly.mutated != 0 {
		t.Fatalf("crash-only counters attempted=%d killed=%d mutated=%d, want 300/300/0",
			crashOnly.attempted, crashOnly.killed, crashOnly.mutated)
	}

	byz := newCorrupter(1, true)
	byz.windows[[2]int{0, 1}] = 1.0
	delivered := 0
	for i := 0; i < 300; i++ {
		if m, drop := byz.OnWire(0, 0, 1, probe()); !drop {
			delivered++
			if _, ok := m.(corruptProbe); !ok {
				t.Fatalf("mutant decoded to %T, want corruptProbe", m)
			}
		}
	}
	if byz.attempted != 300 || byz.killed+byz.mutated != 300 {
		t.Fatalf("byz counters attempted=%d killed=%d mutated=%d do not add up",
			byz.attempted, byz.killed, byz.mutated)
	}
	if delivered == 0 {
		t.Fatal("no decodable mutant in 300 corruptions — bit flips should sometimes survive decode")
	}
	if int64(delivered) != byz.mutated {
		t.Fatalf("delivered %d but mutated counter says %d", delivered, byz.mutated)
	}

	// Outside any window the corrupter is a no-op.
	if m, drop := byz.OnWire(0, 1, 0, probe()); m != nil || drop {
		t.Fatalf("corruption outside a window (m=%v drop=%v)", m, drop)
	}
}

// TestRunSimWithCorruption: both the crash-only and the Byzantine object
// keep their consistency condition under active corrupt windows, and the
// sim's corruption counter proves the windows actually fired.
func TestRunSimWithCorruption(t *testing.T) {
	mix := defaultMix()
	mix.CorruptWindows = 3
	mix.CorruptProb = 0.5
	for _, tc := range []struct {
		alg  string
		n, f int
	}{
		{"eqaso", 5, 2},
		{"byzaso", 7, 2},
	} {
		t.Run(tc.alg, func(t *testing.T) {
			res, err := Run(Config{N: tc.n, F: tc.f, Engine: tc.alg, Seed: 9, Duration: 60 * rt.TicksPerD, Mix: mix}, "sim")
			if err != nil {
				t.Fatal(err)
			}
			if !res.Check.OK {
				t.Fatalf("check failed under corruption: %v", res.Check.Violations)
			}
			if res.Stats.MsgsCorrupt == 0 {
				t.Fatal("MsgsCorrupt = 0: corrupt windows never hit a message")
			}
		})
	}
}

// TestRunTransportChanWithCorruption: the corrupter also rides the real
// transport path through faultNet.
func TestRunTransportChanWithCorruption(t *testing.T) {
	mix := defaultMix()
	mix.CorruptWindows = 3
	mix.CorruptProb = 0.5
	res, err := Run(Config{N: 5, F: 2, Seed: 9, Duration: 30 * rt.TicksPerD, Mix: mix}, "chan")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Check.OK {
		t.Fatalf("check failed under corruption: %v", res.Check.Violations)
	}
	if res.Faults.Corrupt == 0 {
		t.Fatal("Faults.Corrupt = 0: corrupt windows never hit a message")
	}
}
