package sim

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"mpsnap/internal/rt"
)

type pingMsg struct{ Seq int }

func (pingMsg) Kind() string { return "ping" }

// LinkAdversaryFunc adapts a function to the LinkAdversary interface.
type LinkAdversaryFunc func(now rt.Ticks, src, dst int, kind string) LinkFate

// OnSend implements LinkAdversary.
func (f LinkAdversaryFunc) OnSend(now rt.Ticks, src, dst int, kind string) LinkFate {
	return f(now, src, dst, kind)
}

// collect records delivered sequence numbers per node.
type collect struct{ got []int }

func (c *collect) HandleMessage(src int, msg rt.Message) {
	c.got = append(c.got, msg.(pingMsg).Seq)
}

// TestPartitionHoldsUntilHeal: a message sent across the cut arrives only
// after Heal; a message inside an island is unaffected.
func TestPartitionHoldsUntilHeal(t *testing.T) {
	w := New(Config{N: 3, F: 1, Seed: 1})
	sinks := make([]*collect, 3)
	for i := range sinks {
		sinks[i] = &collect{}
		w.SetHandler(i, sinks[i])
	}
	healAt := rt.Ticks(50_000)
	w.Partition([]int{0}, []int{1, 2})
	w.After(healAt, func() { w.Heal() })
	var crossDeliv, sameDeliv rt.Ticks = -1, -1
	w.SetTracer(func(ev TraceEvent) {
		if ev.Kind == "deliver" && ev.Src == 0 && ev.Dst == 1 {
			crossDeliv = ev.T
		}
		if ev.Kind == "deliver" && ev.Src == 1 && ev.Dst == 2 {
			sameDeliv = ev.T
		}
	})
	w.Go("driver", func(p *Proc) {
		w.Runtime(0).Send(1, pingMsg{Seq: 1}) // crosses the cut
		w.Runtime(1).Send(2, pingMsg{Seq: 2}) // same island
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if len(sinks[1].got) != 1 || len(sinks[2].got) != 1 {
		t.Fatalf("deliveries: node1=%v node2=%v", sinks[1].got, sinks[2].got)
	}
	if crossDeliv < healAt {
		t.Fatalf("cross-cut message delivered at t=%d, before heal at t=%d", crossDeliv, healAt)
	}
	if sameDeliv >= healAt {
		t.Fatalf("same-island message delayed to t=%d by an unrelated cut", sameDeliv)
	}
	if st := w.Stats(); st.MsgsHeld != 1 {
		t.Fatalf("MsgsHeld = %d, want 1", st.MsgsHeld)
	}
}

// msgLog records the observer's message events as "event:src>dst".
type msgLog struct{ events []string }

func (l *msgLog) OnOp(rt.OpEvent) {}
func (l *msgLog) OnMsg(ev rt.MsgEvent) {
	l.events = append(l.events, fmt.Sprintf("%s:%d>%d", ev.Event, ev.Src, ev.Dst))
}

// TestHeldMessageIsSentOnce: a message a cut holds emits its send event —
// to the tracer and to the Observer — exactly once, when the heal
// dispatches it, and before its delivery.
func TestHeldMessageIsSentOnce(t *testing.T) {
	obs := &msgLog{}
	w := New(Config{N: 2, F: 0, Seed: 5, Observer: obs})
	w.SetHandler(0, rt.HandlerFunc(func(int, rt.Message) {}))
	w.SetHandler(1, &collect{})
	var traced []string
	w.SetTracer(func(ev TraceEvent) {
		if ev.Src >= 0 {
			traced = append(traced, fmt.Sprintf("%s:%d>%d", ev.Kind, ev.Src, ev.Dst))
		}
	})
	w.Go("driver", func(p *Proc) {
		w.Partition([]int{0}, []int{1})
		w.Runtime(0).Send(1, pingMsg{Seq: 1})
		if err := p.Sleep(1_000); err != nil {
			t.Error(err)
		}
		w.Heal()
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if want := []string{"send:0>1", "deliver:0>1"}; !slices.Equal(obs.events, want) {
		t.Errorf("observer saw %v, want %v", obs.events, want)
	}
	if want := []string{"hold:0>1", "send:0>1", "deliver:0>1"}; !slices.Equal(traced, want) {
		t.Errorf("tracer saw %v, want %v", traced, want)
	}
}

// TestPartitionPreservesFIFO: messages held at the cut are released in
// send order and never overtake each other, interleaved with pre-cut and
// post-heal traffic on the same channel.
func TestPartitionPreservesFIFO(t *testing.T) {
	w := New(Config{N: 2, F: 0, Seed: 3})
	sink := &collect{}
	w.SetHandler(1, sink)
	w.SetHandler(0, rt.HandlerFunc(func(int, rt.Message) {}))
	w.Go("driver", func(p *Proc) {
		w.Runtime(0).Send(1, pingMsg{Seq: 1}) // pre-cut, in flight
		w.Partition([]int{0}, []int{1})
		for s := 2; s <= 4; s++ {
			w.Runtime(0).Send(1, pingMsg{Seq: s}) // held
		}
		if err := p.Sleep(10_000); err != nil {
			t.Error(err)
		}
		w.Heal()
		w.Runtime(0).Send(1, pingMsg{Seq: 5}) // post-heal
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3, 4, 5}
	if len(sink.got) != len(want) {
		t.Fatalf("got %v, want %v", sink.got, want)
	}
	for i, s := range want {
		if sink.got[i] != s {
			t.Fatalf("FIFO violated: got %v, want %v", sink.got, want)
		}
	}
}

// TestLinkAdversaryDrop: dropped messages never arrive and are counted.
func TestLinkAdversaryDrop(t *testing.T) {
	dropAll := LinkAdversaryFunc(func(now rt.Ticks, src, dst int, kind string) LinkFate {
		return LinkFate{Drop: src == 0 && dst == 1}
	})
	w := New(Config{N: 2, F: 0, Seed: 4, Link: dropAll})
	sink := &collect{}
	w.SetHandler(1, sink)
	w.Go("driver", func(p *Proc) {
		w.Runtime(0).Send(1, pingMsg{Seq: 1})
		w.Runtime(1).Send(0, pingMsg{Seq: 2})
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if len(sink.got) != 0 {
		t.Fatalf("dropped message was delivered: %v", sink.got)
	}
	if st := w.Stats(); st.MsgsDrop != 1 {
		t.Fatalf("MsgsDrop = %d, want 1", st.MsgsDrop)
	}
}

// TestLinkAdversaryExtraDelay: Extra stretches delivery beyond the model
// bound D while keeping FIFO.
func TestLinkAdversaryExtraDelay(t *testing.T) {
	const extra = 5 * rt.TicksPerD
	spiky := LinkAdversaryFunc(func(now rt.Ticks, src, dst int, kind string) LinkFate {
		return LinkFate{Extra: extra}
	})
	w := New(Config{N: 2, F: 0, Seed: 5, Link: spiky})
	sink := &collect{}
	w.SetHandler(1, sink)
	var deliv rt.Ticks = -1
	w.SetTracer(func(ev TraceEvent) {
		if ev.Kind == "deliver" && ev.Dst == 1 {
			deliv = ev.T
		}
	})
	w.Go("driver", func(p *Proc) {
		w.Runtime(0).Send(1, pingMsg{Seq: 1})
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if deliv <= extra {
		t.Fatalf("delivery at t=%d, want after the %d-tick spike", deliv, extra)
	}
}

// TestUnhealedPartitionIsDiagnosable: a client blocked behind a cut that
// never heals surfaces as a DeadlockError listing the blocked predicate.
func TestUnhealedPartitionIsDiagnosable(t *testing.T) {
	w := New(Config{N: 2, F: 0, Seed: 6})
	got := 0
	w.SetHandler(1, rt.HandlerFunc(func(int, rt.Message) { got++ }))
	w.Partition([]int{0}, []int{1})
	w.GoNode("stuck-client", 1, func(p *Proc) {
		w.Runtime(0).Send(1, pingMsg{Seq: 1})
		_ = rt.WaitUntil(w.Runtime(1), "await-ping", func() bool { return got > 0 })
	})
	err := w.Run()
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("err = %v, want DeadlockError", err)
	}
	if len(de.Waiters) != 1 || de.Waiters[0].Label != "await-ping" || de.Waiters[0].Node != 1 {
		t.Fatalf("waiters: %+v", de.Waiters)
	}
}

// TestHealIsIdempotent: Heal without a partition is a no-op.
func TestHealIsIdempotent(t *testing.T) {
	w := New(Config{N: 2, F: 0, Seed: 7})
	w.SetHandler(1, &collect{})
	w.Heal()
	w.Partition([]int{0}, []int{1})
	w.Heal()
	w.Heal()
	if w.partitioned {
		t.Fatal("still partitioned after Heal")
	}
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
}
