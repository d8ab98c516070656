package chaos

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"mpsnap/internal/rt"
)

// recWorld is a recording world: At collects the timers, fire replays them
// in tick order, and every fault action appends "<tick> <call>" to calls.
// The embedded nil world makes any method inject has no business calling
// panic.
type recWorld struct {
	world
	timers []wallTimer
	now    rt.Ticks
	calls  []string
}

func (w *recWorld) logf(format string, args ...any) {
	w.calls = append(w.calls, fmt.Sprintf("%d ", w.now)+fmt.Sprintf(format, args...))
}

func (w *recWorld) At(t rt.Ticks, fn func())           { w.timers = append(w.timers, wallTimer{t, fn}) }
func (w *recWorld) Crash(id int)                       { w.logf("crash %d", id) }
func (w *recWorld) ArmMidCrash(id int)                 { w.logf("arm %d", id) }
func (w *recWorld) Partition(groups ...[]int)          { w.logf("partition %v", groups) }
func (w *recWorld) Heal()                              { w.logf("heal") }
func (w *recWorld) Drop(src, dst int, p float64)       { w.logf("drop %d->%d %.2f", src, dst, p) }
func (w *recWorld) Spike(src, dst int, extra rt.Ticks) { w.logf("spike %d->%d %d", src, dst, extra) }
func (w *recWorld) Corrupt(src, dst int, p float64)    { w.logf("corrupt %d->%d %.2f", src, dst, p) }

func (w *recWorld) fire() {
	sort.SliceStable(w.timers, func(i, j int) bool { return w.timers[i].at < w.timers[j].at })
	for _, tm := range w.timers {
		w.now = tm.at
		tm.fn()
	}
}

// TestInjectEveryEventKind: each EventKind maps to exactly the expected
// world call at the expected tick — nothing more, nothing earlier.
func TestInjectEveryEventKind(t *testing.T) {
	const D = rt.TicksPerD
	for _, tc := range []struct {
		ev   Event
		want []string
	}{
		{Event{At: 100, Kind: EvCrash, Node: 2}, []string{"100 crash 2"}},
		{Event{At: 100, Kind: EvCrash, Node: 3, Mid: true},
			[]string{"100 arm 3", fmt.Sprintf("%d crash 3", 100+2*D)}},
		{Event{At: 7, Kind: EvPartition, Groups: [][]int{{0, 1}, {4}}}, []string{"7 partition [[0 1] [4]]"}},
		{Event{At: 9, Kind: EvHeal}, []string{"9 heal"}},
		{Event{At: 5, Kind: EvDropOn, Src: 1, Dst: 2, Prob: 0.25}, []string{"5 drop 1->2 0.25"}},
		{Event{At: 6, Kind: EvDropOff, Src: 1, Dst: 2}, []string{"6 drop 1->2 0.00"}},
		{Event{At: 5, Kind: EvSpikeOn, Src: 3, Dst: 0, Extra: 3 * D}, []string{fmt.Sprintf("5 spike 3->0 %d", 3*D)}},
		{Event{At: 6, Kind: EvSpikeOff, Src: 3, Dst: 0}, []string{"6 spike 3->0 0"}},
		{Event{At: 5, Kind: EvCorruptOn, Src: 4, Dst: 1, Prob: 0.2}, []string{"5 corrupt 4->1 0.20"}},
		{Event{At: 6, Kind: EvCorruptOff, Src: 4, Dst: 1}, []string{"6 corrupt 4->1 0.00"}},
		{Event{At: 42, Kind: EvRestart, Node: 1}, []string{"42 restart 1"}},
	} {
		w := &recWorld{}
		inject(w, []Event{tc.ev}, func(id int) { w.logf("restart %d", id) })
		if len(w.calls) != 0 {
			t.Errorf("%s: acted before Run: %v", tc.ev.Kind, w.calls)
		}
		w.fire()
		if !reflect.DeepEqual(w.calls, tc.want) {
			t.Errorf("%s (mid=%v): calls %v, want %v", tc.ev.Kind, tc.ev.Mid, w.calls, tc.want)
		}
	}
}

// TestInjectKeepsScheduleOrder: events sharing a tick fire in schedule
// order, and a mid-crash fallback lands between the events around it.
func TestInjectKeepsScheduleOrder(t *testing.T) {
	w := &recWorld{}
	inject(w, []Event{
		{At: 10, Kind: EvCrash, Node: 0, Mid: true},
		{At: 10, Kind: EvPartition, Groups: [][]int{{1}}},
		{At: 10 + 2*rt.TicksPerD, Kind: EvHeal},
		{At: 10 + 3*rt.TicksPerD, Kind: EvRestart, Node: 0},
	}, func(id int) { w.logf("restart %d", id) })
	w.fire()
	want := []string{
		"10 arm 0",
		"10 partition [[1]]",
		fmt.Sprintf("%d crash 0", 10+2*rt.TicksPerD),
		fmt.Sprintf("%d heal", 10+2*rt.TicksPerD),
		fmt.Sprintf("%d restart 0", 10+3*rt.TicksPerD),
	}
	if !reflect.DeepEqual(w.calls, want) {
		t.Errorf("calls %v, want %v", w.calls, want)
	}
}
