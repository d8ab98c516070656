package sim

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"mpsnap/internal/rt"
)

// relayMsg is a pointer message, so handing it on allocates nothing.
type relayMsg struct{ payload [64]byte }

func (*relayMsg) Kind() string { return "relay" }

// relay runs a World in which node 0 broadcasts one message and
// broadcasts it again each time its own copy comes back, rounds times in
// all; the other nodes' handlers do nothing. atRound, if set, is called
// before each broadcast with the number made so far.
func relay(tb testing.TB, cfg Config, rounds int, atRound func(int)) *World {
	w := New(cfg)
	r0 := w.Runtime(0)
	made := 0
	bcast := func(m rt.Message) {
		if atRound != nil {
			atRound(made)
		}
		made++
		r0.Broadcast(m)
	}
	w.SetHandler(0, rt.HandlerFunc(func(src int, m rt.Message) {
		if src == 0 && made < rounds {
			bcast(m)
		}
	}))
	noop := rt.HandlerFunc(func(int, rt.Message) {})
	for i := 1; i < cfg.N; i++ {
		w.SetHandler(i, noop)
	}
	w.Go("start", func(*Proc) { bcast(&relayMsg{}) })
	if err := w.Run(); err != nil {
		tb.Fatal(err)
	}
	return w
}

// prefixAdversary lets every broadcast reach only its first four
// destinations.
var prefixAdversary = AdversaryFunc(func(now rt.Ticks, src int, msg rt.Message, dsts []int) ([]int, bool) {
	return dsts[:4], false
})

// TestSchedulerStepAllocatesNothing: once the event queue has grown to
// its peak, sending, queueing and delivering a message allocates nothing
// — in time order, under a broadcast adversary, and under a Sequencer.
func TestSchedulerStepAllocatesNothing(t *testing.T) {
	const k = 200
	for _, tc := range []struct {
		name string
		cfg  func() Config
	}{
		{"timed", func() Config { return Config{N: 7, F: 3, Seed: 1} }},
		{"adversary", func() Config { return Config{N: 7, F: 3, Seed: 1, Adversary: prefixAdversary} }},
		{"sequenced", func() Config {
			return Config{N: 7, F: 3, Seed: 1, Sequencer: &pickScript{choices: []int{1, 0, 2, 1, 0}}}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			measure := func(rounds int) (mallocs uint64, msgs int64) {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				w := relay(t, tc.cfg(), rounds, nil)
				runtime.ReadMemStats(&after)
				return after.Mallocs - before.Mallocs, w.msgsTotal
			}
			m1, n1 := measure(k)
			m10, n10 := measure(10 * k)
			per := float64(int64(m10)-int64(m1)) / float64(n10-n1)
			t.Logf("%d msgs: %d allocs; %d msgs: %d allocs; %.4f per extra message", n1, m1, n10, m10, per)
			if per >= 0.05 {
				t.Fatalf("%.3f allocations per message, want < 0.05", per)
			}
		})
	}
}

// TestDeliveredMessageIsCollectable: a finished World that is still
// referenced keeps no delivered message alive.
func TestDeliveredMessageIsCollectable(t *testing.T) {
	w := New(Config{N: 2, Seed: 1})
	freed := make(chan struct{})
	w.Go("send", func(*Proc) {
		m := &relayMsg{}
		runtime.SetFinalizer(m, func(*relayMsg) { close(freed) })
		w.Runtime(0).Send(1, m)
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	defer runtime.KeepAlive(w)
	for i := 0; i < 20; i++ {
		runtime.GC()
		select {
		case <-freed:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("the delivered message is still reachable from its World")
}

// TestEventHeapOrder interleaves timer and message events with removals
// at random indices (as a Sequencer makes them) and timed pops: every pop
// yields the earliest queued event by (t, seq), and every slot a removal
// vacates is cleared.
func TestEventHeapOrder(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		w := New(Config{N: 3, Seed: seed})
		queued := map[int64]rt.Ticks{} // seq -> t of every queued event
		check := func(ev event) {
			t.Helper()
			if _, ok := queued[ev.seq]; !ok {
				t.Fatalf("seed %d: removed unknown event seq %d", seed, ev.seq)
			}
			delete(queued, ev.seq)
			if spare := w.pq[len(w.pq):cap(w.pq)]; len(spare) > 0 && !reflect.ValueOf(spare[0]).IsZero() {
				t.Fatalf("seed %d: vacated slot still holds %+v", seed, spare[0])
			}
		}
		pop := func() {
			t.Helper()
			ev := w.pq.remove(0)
			for seq, at := range queued {
				if at < ev.t || at == ev.t && seq < ev.seq {
					t.Fatalf("seed %d: popped (t=%d, seq=%d) before (t=%d, seq=%d)", seed, ev.t, ev.seq, at, seq)
				}
			}
			check(ev)
			w.now = ev.t
		}
		for step := 0; step < 3000; step++ {
			switch op := rng.Intn(5); {
			case op == 0:
				at := w.now + rt.Ticks(rng.Intn(40))
				w.schedule(at, func() {})
				queued[w.seq] = at
			case op == 1:
				at := w.now + rt.Ticks(rng.Intn(40))
				w.enqueue(event{t: at, src: rng.Intn(3), dst: rng.Intn(3), kind: "relay", msg: &relayMsg{}})
				queued[w.seq] = at
			case op == 2 && len(w.pq) > 0:
				check(w.pq.remove(rng.Intn(len(w.pq))))
			case op >= 3 && len(w.pq) > 0:
				pop()
			}
		}
		for len(w.pq) > 0 {
			pop()
		}
	}
}

// BenchmarkSchedulerStep measures one scheduler step — a message sent,
// queued and delivered — on a 7-node World, in time order and under a
// Sequencer. The World's setup and the queue's first growth are not
// timed.
func BenchmarkSchedulerStep(b *testing.B) {
	for _, bc := range []struct {
		name string
		cfg  Config
	}{
		{"timed", Config{N: 7, F: 3, Seed: 1}},
		{"sequenced", Config{N: 7, F: 3, Seed: 1, Sequencer: &pickLast{}}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			const warm = 8
			b.ReportAllocs()
			b.StopTimer()
			relay(b, bc.cfg, warm+(b.N+bc.cfg.N-1)/bc.cfg.N, func(made int) {
				if made == warm {
					b.StartTimer()
				}
			})
			b.StopTimer()
		})
	}
}
