package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"mpsnap/internal/rt"
)

// testMsg is a minimal message carrying a sequence number and kind.
type testMsg struct {
	Kd  string
	Seq int
}

func (m testMsg) Kind() string { return m.Kd }

// recorder collects delivered messages per node.
type recorder struct {
	got []struct {
		src int
		msg testMsg
		at  rt.Ticks
	}
	w *World
}

func (r *recorder) HandleMessage(src int, msg rt.Message) {
	r.got = append(r.got, struct {
		src int
		msg testMsg
		at  rt.Ticks
	}{src, msg.(testMsg), r.w.Now()})
}

func TestFIFOAndDelayBound(t *testing.T) {
	const n = 4
	const msgs = 200
	w := New(Config{N: n, F: 1, Seed: 42})
	recs := make([]*recorder, n)
	for i := 0; i < n; i++ {
		recs[i] = &recorder{w: w}
		w.SetHandler(i, recs[i])
	}
	sendTimes := make(map[int]rt.Ticks)
	w.Go("driver", func(p *Proc) {
		r0 := w.Runtime(0)
		for i := 0; i < msgs; i++ {
			sendTimes[i] = w.Now()
			r0.Send(1, testMsg{Kd: "m", Seq: i})
			if i%5 == 0 {
				if err := p.Sleep(rt.Ticks(37 * (i + 1) % 500)); err != nil {
					t.Errorf("sleep: %v", err)
				}
			}
		}
	})
	if err := w.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	got := recs[1].got
	if len(got) != msgs {
		t.Fatalf("node 1 received %d messages, want %d", len(got), msgs)
	}
	for i, g := range got {
		if g.msg.Seq != i {
			t.Fatalf("FIFO violated: position %d carries seq %d", i, g.msg.Seq)
		}
		d := g.at - sendTimes[g.msg.Seq]
		if d < 1 || d > w.D() {
			t.Fatalf("delay %d out of bounds (0, %d] for msg %d", d, w.D(), g.msg.Seq)
		}
	}
}

// TestFIFOProperty: for random delay seeds and interleaved sends from two
// sources, per-channel FIFO order always holds.
func TestFIFOProperty(t *testing.T) {
	prop := func(seed int64, counts uint8) bool {
		k := int(counts%50) + 2
		w := New(Config{N: 3, F: 1, Seed: seed})
		rec := &recorder{w: w}
		w.SetHandler(2, rec)
		w.Go("d", func(p *Proc) {
			for i := 0; i < k; i++ {
				w.Runtime(0).Send(2, testMsg{Kd: "a", Seq: i})
				w.Runtime(1).Send(2, testMsg{Kd: "b", Seq: i})
				if i%3 == 0 {
					_ = p.Sleep(rt.Ticks(i * 11))
				}
			}
		})
		if err := w.Run(); err != nil {
			return false
		}
		nextA, nextB := 0, 0
		for _, g := range rec.got {
			switch g.src {
			case 0:
				if g.msg.Seq != nextA {
					return false
				}
				nextA++
			case 1:
				if g.msg.Seq != nextB {
					return false
				}
				nextB++
			}
		}
		return nextA == k && nextB == k
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestReliabilityAfterCrash(t *testing.T) {
	// Node 0 sends to node 1 and crashes immediately after: the message
	// must still be delivered (reliable channels, Section II-A).
	w := New(Config{N: 2, F: 1, Seed: 7, Delay: Constant{Ticks: 500}})
	rec := &recorder{w: w}
	w.SetHandler(1, rec)
	w.Go("d", func(p *Proc) {
		w.Runtime(0).Send(1, testMsg{Kd: "m", Seq: 1})
		w.Crash(0)
		// A send after the crash must be dropped.
		w.Runtime(0).Send(1, testMsg{Kd: "m", Seq: 2})
	})
	if err := w.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(rec.got) != 1 || rec.got[0].msg.Seq != 1 {
		t.Fatalf("got %v, want exactly the pre-crash message", rec.got)
	}
}

func TestCrashMidBroadcast(t *testing.T) {
	// The adversary lets node 0's broadcast reach only node 1, then
	// crashes node 0.
	adv := AdversaryFunc(func(now rt.Ticks, src int, msg rt.Message, dsts []int) ([]int, bool) {
		if src == 0 && msg.Kind() == "v" {
			return []int{1}, true
		}
		return dsts, false
	})
	w := New(Config{N: 4, F: 1, Seed: 7, Adversary: adv})
	recs := make([]*recorder, 4)
	for i := range recs {
		recs[i] = &recorder{w: w}
		w.SetHandler(i, recs[i])
	}
	w.Go("d", func(p *Proc) {
		w.Runtime(0).Broadcast(testMsg{Kd: "v", Seq: 9})
	})
	if err := w.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !w.Crashed(0) {
		t.Fatal("node 0 should have crashed")
	}
	if len(recs[1].got) != 1 {
		t.Fatalf("node 1 should have received the value, got %v", recs[1].got)
	}
	for _, i := range []int{0, 2, 3} {
		if len(recs[i].got) != 0 {
			t.Fatalf("node %d should have received nothing, got %v", i, recs[i].got)
		}
	}
}

func TestWaitUntilThenAndCrashAbort(t *testing.T) {
	w := New(Config{N: 2, F: 1, Seed: 1})
	var counter int
	w.SetHandler(0, rt.HandlerFunc(func(src int, msg rt.Message) { counter++ }))
	var sawThen bool
	var waitErr error
	w.GoNode("client0", 0, func(p *Proc) {
		r := w.Runtime(0)
		waitErr = r.WaitUntilThen("counter>=3", func() bool { return counter >= 3 }, func() { sawThen = true })
	})
	w.Go("driver", func(p *Proc) {
		r1 := w.Runtime(1)
		for i := 0; i < 3; i++ {
			r1.Send(0, testMsg{Kd: "tick", Seq: i})
		}
	})
	if err := w.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if waitErr != nil || !sawThen {
		t.Fatalf("wait: err=%v then=%v", waitErr, sawThen)
	}

	// Crash while blocked: the wait must fail with ErrCrashed.
	w2 := New(Config{N: 2, F: 1, Seed: 1})
	var err2 error
	w2.GoNode("client0", 0, func(p *Proc) {
		err2 = rt.WaitUntil(w2.Runtime(0), "never", func() bool { return false })
	})
	w2.CrashAt(0, 100)
	if err := w2.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !errors.Is(err2, rt.ErrCrashed) {
		t.Fatalf("err2 = %v, want ErrCrashed", err2)
	}
}

func TestDeadlockDetection(t *testing.T) {
	w := New(Config{N: 1, F: 0, Seed: 1})
	w.GoNode("stuck", 0, func(p *Proc) {
		_ = rt.WaitUntil(w.Runtime(0), "impossible", func() bool { return false })
	})
	err := w.Run()
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("err = %v, want DeadlockError", err)
	}
	if len(de.Waiters) != 1 || de.Waiters[0].Label != "impossible" || de.Waiters[0].Node != 0 {
		t.Fatalf("diagnostics: %+v", de.Waiters)
	}
	if !strings.Contains(de.Error(), "impossible") {
		t.Fatalf("error text lacks blocked predicate label: %v", de)
	}
}

func TestDeterminism(t *testing.T) {
	trace := func(seed int64) string {
		w := New(Config{N: 5, F: 2, Seed: seed})
		var sb strings.Builder
		for i := 0; i < 5; i++ {
			id := i
			w.SetHandler(i, rt.HandlerFunc(func(src int, msg rt.Message) {
				fmt.Fprintf(&sb, "[%d] %d<-%d %v\n", w.Now(), id, src, msg)
				if m := msg.(testMsg); m.Seq > 0 {
					w.Runtime(id).Send((id+1)%5, testMsg{Kd: m.Kd, Seq: m.Seq - 1})
				}
			}))
		}
		w.Go("d", func(p *Proc) {
			w.Runtime(0).Broadcast(testMsg{Kd: "gossip", Seq: 6})
		})
		if err := w.Run(); err != nil {
			t.Fatalf("run: %v", err)
		}
		return sb.String()
	}
	a, b := trace(99), trace(99)
	if a != b {
		t.Fatalf("same seed produced different traces:\n%s\n---\n%s", a, b)
	}
	c := trace(100)
	if a == c {
		t.Fatal("different seeds should (almost surely) differ for random delays")
	}
}

func TestSleepAdvancesVirtualTime(t *testing.T) {
	w := New(Config{N: 1, F: 0, Seed: 1})
	var t1, t2 rt.Ticks
	w.Go("sleeper", func(p *Proc) {
		t1 = p.Now()
		if err := p.Sleep(12345); err != nil {
			t.Errorf("sleep: %v", err)
		}
		t2 = p.Now()
	})
	if err := w.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if t2-t1 < 12345 {
		t.Fatalf("slept only %d ticks", t2-t1)
	}
}

func TestProcPanicPropagates(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil || !strings.Contains(fmt.Sprint(r), "boom") {
			t.Fatalf("recover = %v, want panic containing 'boom'", r)
		}
	}()
	w := New(Config{N: 1, F: 0, Seed: 1})
	w.Go("bad", func(p *Proc) { panic("boom") })
	_ = w.Run()
	t.Fatal("unreachable: Run should have panicked")
}

func TestFailureChainsAdversary(t *testing.T) {
	// Chain 0 -> 1 -> 2 -> 3(correct). The value broadcast by node 0
	// hops one node per broadcast; nodes 0,1,2 crash; node 3 finally
	// broadcasts it to everyone.
	keyOf := func(m rt.Message) (any, bool) {
		tm, ok := m.(testMsg)
		if !ok || tm.Kd != "value" {
			return nil, false
		}
		return tm.Seq, true
	}
	fc := NewFailureChains(keyOf, ChainSpec{Nodes: []int{0, 1, 2, 3}})
	if got := fc.FaultyNodes(); !reflect.DeepEqual(got, []int{0, 1, 2}) {
		t.Fatalf("FaultyNodes = %v", got)
	}
	w := New(Config{N: 5, F: 3, Seed: 3, Adversary: fc, Delay: Constant{Ticks: rt.TicksPerD}})
	recs := make([]*recorder, 5)
	firstSeen := make([]rt.Ticks, 5)
	for i := range recs {
		recs[i] = &recorder{w: w}
		id := i
		w.SetHandler(i, rt.HandlerFunc(func(src int, msg rt.Message) {
			recs[id].HandleMessage(src, msg)
			if firstSeen[id] == 0 {
				firstSeen[id] = w.Now()
				// forward once, like the algorithms do
				w.Runtime(id).Broadcast(msg)
			}
		}))
	}
	w.Go("d", func(p *Proc) {
		w.Runtime(0).Broadcast(testMsg{Kd: "value", Seq: 77})
	})
	if err := w.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, i := range []int{0, 1, 2} {
		if !w.Crashed(i) {
			t.Fatalf("chain node %d should have crashed", i)
		}
	}
	// Node 4 (outside the chain) should learn the value only after 4 hops:
	// 0->1 (D), 1->2 (D), 2->3 (D), 3->4 (D) = 4D.
	want := 4 * rt.TicksPerD
	if firstSeen[4] != want {
		t.Fatalf("node 4 first saw the value at %d, want %d", firstSeen[4], want)
	}
}

func TestBuildChains(t *testing.T) {
	pool := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	chains, used := BuildChains(pool, 6, 42)
	// lengths 2 (1 faulty), 3 (2 faulty), 4 (3 faulty) = 6 faulty total
	if used != 6 || len(chains) != 3 {
		t.Fatalf("used=%d chains=%d", used, len(chains))
	}
	seen := map[int]bool{}
	for ci, c := range chains {
		if len(c.Nodes) != ci+2 {
			t.Fatalf("chain %d has length %d", ci, len(c.Nodes))
		}
		if c.Nodes[len(c.Nodes)-1] != 42 {
			t.Fatalf("chain %d terminal = %d", ci, c.Nodes[len(c.Nodes)-1])
		}
		for _, nd := range c.Nodes[:len(c.Nodes)-1] {
			if seen[nd] {
				t.Fatalf("faulty node %d reused", nd)
			}
			seen[nd] = true
		}
	}
}

func TestSelfDelayAndStats(t *testing.T) {
	w := New(Config{N: 2, F: 0, Seed: 5})
	var selfAt rt.Ticks
	w.SetHandler(0, rt.HandlerFunc(func(src int, msg rt.Message) { selfAt = w.Now() }))
	w.Go("d", func(p *Proc) {
		w.Runtime(0).Send(0, testMsg{Kd: "self", Seq: 0})
	})
	if err := w.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if selfAt != 1 {
		t.Fatalf("self delivery at %d, want 1 tick", selfAt)
	}
	st := w.Stats()
	if st.MsgsTotal != 1 || st.MsgsByKind["self"] != 1 || st.SentByNode[0] != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestDelayModels(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	if d := (Constant{Ticks: 7}).Delay(0, 1, "x", 0, r); d != 7 {
		t.Fatalf("constant: %d", d)
	}
	u := Uniform{Min: 3, Max: 9}
	for i := 0; i < 100; i++ {
		if d := u.Delay(0, 1, "x", 0, r); d < 3 || d > 9 {
			t.Fatalf("uniform out of range: %d", d)
		}
	}
	if d := (Uniform{Min: 5, Max: 5}).Delay(0, 1, "x", 0, r); d != 5 {
		t.Fatalf("degenerate uniform: %d", d)
	}
	sl := SlowLinks{Slow: map[[2]int]bool{{0, 1}: true}, SlowDelay: 900, FastDelay: 10}
	if d := sl.Delay(0, 1, "x", 0, r); d != 900 {
		t.Fatalf("slow link: %d", d)
	}
	if d := sl.Delay(1, 0, "x", 0, r); d != 10 {
		t.Fatalf("fast link: %d", d)
	}
	df := DelayFunc(func(src, dst int, kind string, now rt.Ticks, r *rand.Rand) rt.Ticks { return 11 })
	if d := df.Delay(0, 1, "x", 0, r); d != 11 {
		t.Fatalf("delay func: %d", d)
	}
}

func TestMaxEventsBackstop(t *testing.T) {
	w := New(Config{N: 2, F: 0, Seed: 1, MaxEvents: 1000})
	// Two nodes ping-pong forever.
	for i := 0; i < 2; i++ {
		id := i
		w.SetHandler(i, rt.HandlerFunc(func(src int, msg rt.Message) {
			w.Runtime(id).Send(1-id, msg)
		}))
	}
	w.Go("d", func(p *Proc) { w.Runtime(0).Send(1, testMsg{Kd: "ping", Seq: 0}) })
	err := w.Run()
	if err == nil || !strings.Contains(err.Error(), "MaxEvents") {
		t.Fatalf("err = %v, want MaxEvents error", err)
	}
}

// TestCriticalSectionReentryPanics: on chan and tcp a node's critical
// section is a plain mutex, so code that enters it from inside itself
// self-deadlocks there while passing every simulator test. The simulator
// names the re-entry instead, one case per way of getting there; the same
// sections entered one after the other stay legal.
func TestCriticalSectionReentryPanics(t *testing.T) {
	cases := []struct {
		name, want string
		run        func(w *World, r rt.Runtime)
	}{
		{"Atomic in a handler", "Atomic inside a handler", func(w *World, r rt.Runtime) {
			w.SetHandler(0, rt.HandlerFunc(func(int, rt.Message) { r.Atomic(func() {}) }))
			w.Go("driver", func(*Proc) { r.Send(0, testMsg{Kd: "m"}) })
		}},
		{"nested Atomic", "Atomic inside Atomic", func(w *World, r rt.Runtime) {
			w.GoNode("client", 0, func(*Proc) { r.Atomic(func() { r.Atomic(func() {}) }) })
		}},
		{"Atomic in a then", "Atomic inside a WaitUntilThen's then", func(w *World, r rt.Runtime) {
			w.GoNode("client", 0, func(*Proc) {
				_ = r.WaitUntilThen("now", func() bool { return true }, func() { r.Atomic(func() {}) })
			})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), tc.want) {
					t.Fatalf("recover = %v, want a panic naming %q", r, tc.want)
				}
			}()
			w := New(Config{N: 1, F: 0, Seed: 1})
			tc.run(w, w.Runtime(0))
			_ = w.Run()
			t.Fatal("unreachable: Run should have panicked")
		})
	}

	w := New(Config{N: 1, F: 0, Seed: 1})
	r := w.Runtime(0)
	handled, sections := 0, 0
	w.SetHandler(0, rt.HandlerFunc(func(int, rt.Message) { handled++ }))
	w.GoNode("client", 0, func(*Proc) {
		r.Atomic(func() { sections++; r.Send(0, testMsg{Kd: "m"}) })
		_ = r.WaitUntilThen("handled", func() bool { return handled == 1 }, func() { sections++ })
		r.Atomic(func() { sections++ })
	})
	if err := w.Run(); err != nil || sections != 3 {
		t.Fatalf("sequential critical sections: err=%v sections=%d, want nil and 3", err, sections)
	}
}
