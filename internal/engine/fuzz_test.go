package engine_test

import (
	"fmt"
	"testing"

	"mpsnap/internal/engine"
	_ "mpsnap/internal/engine/all"
	"mpsnap/internal/harness"
	"mpsnap/internal/rt"
	"mpsnap/internal/sim"
)

// Differential engine fuzzing: decode the fuzz input into one sequential
// schedule of UPDATE/SCAN operations across the cluster's nodes, run the
// identical schedule on EQ-ASO and on every other linearizable engine of
// the registry, and compare every scan pointwise. Because the schedule is sequential (each operation
// completes before the next is issued), linearizability admits exactly one
// outcome — every segment holds the last value its node wrote — so any
// divergence between engines, or from that trivial oracle, is a bug.

const (
	fuzzN      = 4
	fuzzF      = 1
	fuzzOpsCap = 48
)

// fuzzEngines lists EQ-ASO (the reference) first, then every other
// registered engine that is not Sequential (a sequentially consistent scan
// may lag the trivial oracle); each later engine is compared against it.
var fuzzEngines = func() []string {
	out := []string{"eqaso"}
	for _, name := range engine.Names() {
		if name != "eqaso" && !engine.MustLookup(name).Sequential {
			out = append(out, name)
		}
	}
	return out
}()

type fuzzOp struct {
	node int
	scan bool
}

// decodeSchedule maps each input byte to one operation: low bits pick the
// node, and roughly a quarter of the bytes become scans.
func decodeSchedule(data []byte) []fuzzOp {
	ops := make([]fuzzOp, 0, fuzzOpsCap)
	for _, b := range data {
		if len(ops) == fuzzOpsCap {
			break
		}
		ops = append(ops, fuzzOp{node: int(b) % fuzzN, scan: (b>>2)%4 == 0})
	}
	return ops
}

// fuzzSeed mixes the input into a sim seed so message delays vary with the
// schedule, not just the op sequence.
func fuzzSeed(data []byte) int64 {
	h := int64(1469598103934665603)
	for _, b := range data {
		h = (h ^ int64(b)) * 1099511628211
	}
	if h < 0 {
		h = -h
	}
	return h%100000 + 1
}

// runSchedule executes ops one at a time on the named engine and returns
// each scan's result keyed by schedule position.
func runSchedule(t *testing.T, name string, ops []fuzzOp, seed int64) map[int][]string {
	t.Helper()
	in := engine.MustLookup(name)
	c := harness.Build(sim.Config{N: fuzzN, F: fuzzF, Seed: seed}, func(r rt.Runtime) (rt.Handler, harness.Object) {
		e := in.New(r)
		return e, e
	})
	turn := 0
	scans := make(map[int][]string)
	var opErr error
	for i := 0; i < fuzzN; i++ {
		i := i
		c.Client(i, func(o *harness.OpRunner) {
			for {
				if err := o.P.WaitUntilGlobal("schedule turn", func() bool {
					return turn >= len(ops) || ops[turn].node == i
				}); err != nil {
					return
				}
				if turn >= len(ops) {
					return
				}
				idx := turn
				if ops[idx].scan {
					snap, err := o.Scan()
					if err != nil {
						opErr, turn = err, len(ops)
						return
					}
					scans[idx] = snap
				} else if err := o.UpdateValue(fmt.Sprintf("v%d", idx)); err != nil {
					opErr, turn = err, len(ops)
					return
				}
				turn = idx + 1
			}
		})
	}
	h, err := c.Run()
	if err != nil {
		t.Fatalf("%s: run: %v", name, err)
	}
	if opErr != nil {
		t.Fatalf("%s: fault-free op failed: %v", name, opErr)
	}
	if rep := h.CheckLinearizable(); !rep.OK {
		t.Fatalf("%s: sequential schedule not linearizable: %v", name, rep.Violations)
	}
	return scans
}

// oracle computes the only legal outcome of each scan in a sequential
// schedule: segment j holds node j's last completed update ("" = ⊥).
func oracle(ops []fuzzOp) map[int][]string {
	last := make([]string, fuzzN)
	out := make(map[int][]string)
	for idx, op := range ops {
		if op.scan {
			out[idx] = append([]string(nil), last...)
		} else {
			last[op.node] = fmt.Sprintf("v%d", idx)
		}
	}
	return out
}

func checkSchedule(t *testing.T, data []byte) {
	t.Helper()
	ops := decodeSchedule(data)
	if len(ops) == 0 {
		return
	}
	seed := fuzzSeed(data)
	want := oracle(ops)
	ref := runSchedule(t, fuzzEngines[0], ops, seed)
	for idx, snap := range ref {
		for j := range snap {
			if snap[j] != want[idx][j] {
				t.Fatalf("%s: scan@%d segment %d = %q, oracle says %q (schedule %v)",
					fuzzEngines[0], idx, j, snap[j], want[idx][j], ops)
			}
		}
	}
	for _, name := range fuzzEngines[1:] {
		got := runSchedule(t, name, ops, seed)
		if len(got) != len(ref) {
			t.Fatalf("%s: %d scans completed, reference completed %d", name, len(got), len(ref))
		}
		for idx, snap := range ref {
			for j := range snap {
				if got[idx][j] != snap[j] {
					t.Fatalf("%s diverges from %s: scan@%d segment %d = %q, want %q (schedule %v)",
						name, fuzzEngines[0], idx, j, got[idx][j], snap[j], ops)
				}
			}
		}
	}
}

// FuzzEngineEquivalence is the native fuzz target behind `make
// fuzz-engines`: random operation schedules on EQ-ASO versus every other
// linearizable engine, scans compared pointwise.
func FuzzEngineEquivalence(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte{1, 1, 1, 4, 4, 4, 0, 16, 32, 64, 128, 255})
	f.Add([]byte("interleaved updates and scans across all nodes"))
	f.Add([]byte{16, 17, 18, 19, 16, 17, 18, 19, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkSchedule(t, data)
	})
}

// TestEngineEquivalenceCorpus keeps the differential check in the plain
// test suite: a few dozen deterministic random schedules per run.
func TestEngineEquivalenceCorpus(t *testing.T) {
	rng := newPCG(0x9e3779b9)
	for round := 0; round < 24; round++ {
		data := make([]byte, 8+rng()%41)
		for i := range data {
			data[i] = byte(rng())
		}
		checkSchedule(t, data)
	}
}

// newPCG is a tiny deterministic generator so the corpus test needs no
// seed plumbing.
func newPCG(state uint64) func() uint64 {
	return func() uint64 {
		state = state*6364136223846793005 + 1442695040888963407
		x := state
		x ^= x >> 33
		return x
	}
}
