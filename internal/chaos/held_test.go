package chaos

import (
	"slices"
	"sync"
	"testing"

	"mpsnap/internal/rt"
)

// probeSink records the Seq of every corruptProbe its node receives, in
// delivery order.
type probeSink struct {
	mu   sync.Mutex
	seqs []int
}

func (s *probeSink) HandleMessage(_ int, msg rt.Message) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seqs = append(s.seqs, msg.(corruptProbe).Seq)
}

func (s *probeSink) got() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return slices.Clone(s.seqs)
}

// newTestWorld brings up a three-node world of the backend, closed when
// the test ends.
func newTestWorld(t *testing.T, backend string) world {
	t.Helper()
	w, err := newWorld(backend, worldConfig{N: 3, F: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	return w
}

// runSteps runs the steps on w, the k-th at tick (10k+1)·D, until done
// holds or 50 D have passed.
func runSteps(t *testing.T, w world, done func() bool, steps ...func(w world)) {
	t.Helper()
	for k, step := range steps {
		w.At(rt.Ticks(10*k+1)*rt.TicksPerD, func() { step(w) })
	}
	w.GoClient("wait", 2, func() {
		for w.Now() < 50*rt.TicksPerD && !done() {
			w.Sleep(rt.TicksPerD / 10)
		}
	})
	if _, err := w.Run(60*rt.TicksPerD, grace, nil); err != nil {
		t.Fatal(err)
	}
}

// deliveredTo1 runs the steps on a three-node world of the backend and
// returns what node 1 received, in order, once it has want messages or
// 50 D have passed.
func deliveredTo1(t *testing.T, backend string, want int, steps ...func(w world)) []int {
	t.Helper()
	w := newTestWorld(t, backend)
	sinks := make([]*probeSink, 3)
	for id := range sinks {
		sinks[id] = &probeSink{}
		w.SetHandler(id, sinks[id])
	}
	runSteps(t, w, func() bool { return len(sinks[1].got()) >= want }, steps...)
	return sinks[1].got()
}

var backends = []string{"sim", "chan", "tcp"}

// TestHeldMessageSurvivesSenderCrash: a message sent across a partition
// cut, or into a spike window, was sent — the reliable channel delivers
// it although its sender crashes before the cut heals or the window
// closes, on every backend.
func TestHeldMessageSurvivesSenderCrash(t *testing.T) {
	for _, fault := range []struct {
		name          string
		hold, release func(w world)
	}{
		{"partition", func(w world) { w.Partition([]int{0}) }, func(w world) { w.Heal() }},
		{"spike", func(w world) { w.Spike(0, 1, 3*rt.TicksPerD) }, func(w world) { w.Spike(0, 1, 0) }},
	} {
		for _, backend := range backends {
			t.Run(fault.name+"/"+backend, func(t *testing.T) {
				got := deliveredTo1(t, backend, 1, func(w world) {
					fault.hold(w)
					w.Runtime(0).Send(1, corruptProbe{Seq: 1})
					w.Crash(0)
					fault.release(w)
				})
				if !slices.Equal(got, []int{1}) {
					t.Errorf("node 1 received %v, want [1]", got)
				}
			})
		}
	}
}

// TestReplacingACutReleasesItsLinksFirst: when a partition replaces
// another (a sharded schedule does so whenever one shard heals while
// another's cut is up), a message held on a link the new cut no longer
// severs is delivered before anything sent on that link later.
func TestReplacingACutReleasesItsLinksFirst(t *testing.T) {
	for _, backend := range backends {
		t.Run(backend, func(t *testing.T) {
			got := deliveredTo1(t, backend, 2, func(w world) {
				w.Partition([]int{0})
				w.Runtime(0).Send(1, corruptProbe{Seq: 1}) // held: 0 | 1 2
				w.Partition([]int{2})
				w.Runtime(0).Send(1, corruptProbe{Seq: 2}) // 0 1 | 2: not cut
			}, func(w world) { w.Heal() })
			if !slices.Equal(got, []int{1, 2}) {
				t.Errorf("node 1 received %v, want [1 2]", got)
			}
		})
	}
}
