package chaos

import (
	"reflect"
	"testing"

	"mpsnap/internal/rt"
)

// TestGenerateChurnDeterministic pins the churn generator as a pure
// function of its arguments: equal inputs give byte-identical schedules
// (and hashes), and varying any of seed, restarts, or generator kind
// gives a distinct hash.
func TestGenerateChurnDeterministic(t *testing.T) {
	dur := 400 * rt.TicksPerD
	a := generateChurn(7, 5, 2, dur, true)
	b := generateChurn(7, 5, 2, dur, true)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same inputs must generate identical schedules")
	}
	if a.Hash() != b.Hash() {
		t.Fatal("same inputs must hash identically")
	}
	if len(a.Events) == 0 {
		t.Fatal("churn schedule has no events")
	}
	if !a.HasRestarts() {
		t.Fatal("restart lane missing with restarts enabled")
	}
	c := generateChurn(8, 5, 2, dur, true)
	if a.Hash() == c.Hash() {
		t.Fatal("different seeds must hash apart")
	}
	d := generateChurn(7, 5, 2, dur, false)
	if d.HasRestarts() {
		t.Fatal("restart lane must be off for non-durable engines")
	}
	if a.Hash() == d.Hash() {
		t.Fatal("restart-lane toggle must hash apart")
	}
	m := generate(7, 5, 2, dur, defaultMix())
	if a.Hash() == m.Hash() {
		t.Fatal("churn and mix schedules of the same seed must hash apart")
	}
}

// TestChurnScheduleBudget is the property test over the churn generator:
// for many (seed, n, f, restarts, duration) combinations, replaying the
// event list must show the fault budget honored at every instant — the
// number of nodes crashed or isolated never exceeds f — along with the
// structural invariants: sorted events inside the run, restarts only for
// crashed nodes at least 3D after their crash (the mid-broadcast fallback
// fires at +2D), single-node islands never landing on a crashed node,
// properly nested partition/heal and spike windows, and nothing left
// crashed, isolated, or lagging at the end.
func TestChurnScheduleBudget(t *testing.T) {
	cases := []struct {
		n, f     int
		restarts bool
	}{
		{3, 1, true}, {3, 1, false}, {5, 2, true}, {5, 2, false},
		{7, 3, true}, {7, 1, true}, {9, 4, false},
	}
	for seed := int64(1); seed <= 25; seed++ {
		for _, tc := range cases {
			dur := rt.Ticks(200+17*seed) * rt.TicksPerD
			s := generateChurn(seed, tc.n, tc.f, dur, tc.restarts)
			validateChurn(t, s, tc.restarts)
		}
	}
}

func validateChurn(t *testing.T, s Schedule, restarts bool) {
	t.Helper()
	crashed := make(map[int]bool)
	crashAt := make(map[int]rt.Ticks)
	spikes := make(map[[2]int]bool)
	isolated := -1
	var last rt.Ticks
	ctx := func(ev Event) string {
		return "seed=" + s.Hash() + ": " + ev.String()
	}
	for _, ev := range s.Events {
		if ev.At < last {
			t.Fatalf("%s: events not sorted", ctx(ev))
		}
		last = ev.At
		if ev.At < 0 || ev.At >= s.Duration {
			t.Fatalf("%s: event outside the run", ctx(ev))
		}
		switch ev.Kind {
		case EvCrash:
			if !restarts {
				t.Fatalf("%s: crash without restart lane", ctx(ev))
			}
			if crashed[ev.Node] {
				t.Fatalf("%s: crash of an already-crashed node", ctx(ev))
			}
			if ev.Node == isolated {
				t.Fatalf("%s: crash of the isolated node", ctx(ev))
			}
			crashed[ev.Node] = true
			crashAt[ev.Node] = ev.At
		case EvRestart:
			if !crashed[ev.Node] {
				t.Fatalf("%s: restart of a live node", ctx(ev))
			}
			if ev.At-crashAt[ev.Node] < 3*rt.TicksPerD {
				t.Fatalf("%s: restart %d ticks after crash, before the +2D mid-broadcast fallback",
					ctx(ev), ev.At-crashAt[ev.Node])
			}
			delete(crashed, ev.Node)
		case EvPartition:
			if isolated >= 0 {
				t.Fatalf("%s: overlapping partitions", ctx(ev))
			}
			if len(ev.Groups) != 1 || len(ev.Groups[0]) != 1 {
				t.Fatalf("%s: churn flaps isolate exactly one node, got %v", ctx(ev), ev.Groups)
			}
			isolated = ev.Groups[0][0]
			if crashed[isolated] {
				t.Fatalf("%s: flap landed on a crashed node", ctx(ev))
			}
		case EvHeal:
			if isolated < 0 {
				t.Fatalf("%s: heal without partition", ctx(ev))
			}
			isolated = -1
		case EvSpikeOn:
			spikes[[2]int{ev.Src, ev.Dst}] = true
		case EvSpikeOff:
			if !spikes[[2]int{ev.Src, ev.Dst}] {
				t.Fatalf("%s: spike-off without spike-on", ctx(ev))
			}
			delete(spikes, [2]int{ev.Src, ev.Dst})
		default:
			t.Fatalf("%s: unexpected kind in a churn schedule", ctx(ev))
		}
		charged := len(crashed)
		if isolated >= 0 {
			charged++
		}
		if charged > s.F {
			t.Fatalf("%s: fault budget exceeded: %d nodes charged, f=%d", ctx(ev), charged, s.F)
		}
	}
	if len(crashed) > 0 {
		t.Fatalf("schedule %s leaves nodes crashed: %v", s.Hash(), crashed)
	}
	if isolated >= 0 {
		t.Fatalf("schedule %s leaves node %d isolated", s.Hash(), isolated)
	}
	if len(spikes) > 0 {
		t.Fatalf("schedule %s leaves links lagging: %v", s.Hash(), spikes)
	}
}
