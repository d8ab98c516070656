package transport_test

import (
	"slices"
	"sync"
	"testing"
	"time"

	"mpsnap/internal/rt"
	"mpsnap/internal/transport"
)

// seqSink records the Seq of every benchMsg delivered to it, in order.
type seqSink struct {
	mu   sync.Mutex
	seqs []int
}

func (s *seqSink) HandleMessage(_ int, msg rt.Message) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seqs = append(s.seqs, msg.(benchMsg).Seq)
}

func (s *seqSink) got() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return slices.Clone(s.seqs)
}

// heldMesh is a two-node mesh of either transport, as a held-link test
// drives it.
type heldMesh struct {
	send       func(seq int) // node 0 → node 1
	hold       func(on bool) // the link 0 → 1
	crash      func()        // node 0
	goroutines int           // what the mesh runs, held links or not
}

// TestHeldLinkDeliversInOrderAfterRelease: on both transports a held link
// delivers nothing of what is sent while it is held; a release delivers
// it, after everything sent before the hold and in send order, although
// the sender crashed meanwhile; and holding starts no goroutine.
func TestHeldLinkDeliversInOrderAfterRelease(t *testing.T) {
	const before, during = 5, 5
	for _, tc := range []struct {
		name  string
		build func(t *testing.T, sink *seqSink) heldMesh
	}{
		{"chan", func(t *testing.T, sink *seqSink) heldMesh {
			cn := transport.NewChanNet(transport.ChanConfig{N: 2, D: time.Millisecond, Seed: 1})
			t.Cleanup(cn.Close)
			cn.SetHandler(0, rt.HandlerFunc(func(int, rt.Message) {}))
			cn.SetHandler(1, sink)
			return heldMesh{
				send:       func(seq int) { cn.Runtime(0).Send(1, benchMsg{Seq: seq}) },
				hold:       func(on bool) { cn.Hold(0, 1, on) },
				crash:      func() { cn.Crash(0) },
				goroutines: 2 * 2,
			}
		}},
		{"tcp", func(t *testing.T, sink *seqSink) heldMesh {
			nodes := startRawMesh(t, []rt.Handler{rt.HandlerFunc(func(int, rt.Message) {}), sink})
			// Carry a message on the other link too, so both receive loops
			// are up before the goroutines are counted.
			nodes[1].Runtime().Send(0, benchMsg{Seq: -1})
			return heldMesh{
				send:       func(seq int) { nodes[0].Runtime().Send(1, benchMsg{Seq: seq}) },
				hold:       func(on bool) { nodes[0].Hold(1, on) },
				crash:      nodes[0].Crash,
				goroutines: 2 * 2 * 2,
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := settledGoroutines()
			sink := &seqSink{}
			m := tc.build(t, sink)
			for seq := 0; seq < before; seq++ {
				m.send(seq)
			}
			m.hold(true)
			for seq := before; seq < before+during; seq++ {
				m.send(seq)
			}
			if runs := settledGoroutines() - base; runs != m.goroutines {
				t.Errorf("with a held link the mesh runs %d goroutines, want %d", runs, m.goroutines)
			}
			if got := sink.got(); slices.ContainsFunc(got, func(seq int) bool { return seq >= before }) {
				t.Fatalf("a held link delivered %v", got)
			}
			m.crash()
			m.hold(false)
			want := make([]int, before+during)
			for i := range want {
				want[i] = i
			}
			for deadline := time.Now().Add(5 * time.Second); len(sink.got()) < len(want); time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("after release: delivered %v, want %v", sink.got(), want)
				}
			}
			if got := sink.got(); !slices.Equal(got, want) {
				t.Fatalf("after release: delivered %v, want %v", got, want)
			}
		})
	}
}
