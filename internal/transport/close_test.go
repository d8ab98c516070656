package transport_test

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mpsnap/internal/rt"
	"mpsnap/internal/transport"
)

// TestClosedNodeKeepsNoBuffers: a link queue and a waiter list keep the
// room of their busiest moment; once the transport is closed, a node keeps
// neither, so what a closed mesh still holds does not depend on how its
// traffic happened to bunch up.
func TestClosedNodeKeepsNoBuffers(t *testing.T) {
	const waiters, msgs = 16, 64
	for _, tc := range []struct {
		name  string
		build func(t *testing.T) (r rt.Runtime, hold func(), parked, retained func() int, close func())
	}{
		{"chan", func(t *testing.T) (rt.Runtime, func(), func() int, func() int, func()) {
			cn := transport.NewChanNet(transport.ChanConfig{N: 2, D: time.Millisecond, Seed: 1})
			for id := range 2 {
				cn.SetHandler(id, rt.HandlerFunc(func(int, rt.Message) {}))
			}
			return cn.Runtime(0), func() { cn.Hold(0, 1, true) },
				func() int { return cn.Parked(0) }, func() int { return cn.Retained(0) }, cn.Close
		}},
		{"tcp", func(t *testing.T) (rt.Runtime, func(), func() int, func() int, func()) {
			nop := rt.HandlerFunc(func(int, rt.Message) {})
			nodes := startRawMesh(t, []rt.Handler{nop, nop})
			return nodes[0].Runtime(), func() { nodes[0].Hold(1, true) },
				nodes[0].Parked, nodes[0].Retained, nodes[0].Close
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r, hold, parked, retained, closeNet := tc.build(t)
			var open atomic.Bool
			var wg sync.WaitGroup
			for range waiters {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if err := r.WaitUntilThen("test", open.Load, func() {}); err != nil {
						t.Error(err)
					}
				}()
			}
			for deadline := time.Now().Add(5 * time.Second); parked() < waiters; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("%d of %d waiters parked", parked(), waiters)
				}
			}
			open.Store(true)
			r.Atomic(func() {})
			wg.Wait()
			hold()
			for seq := range msgs {
				r.Send(1, benchMsg{Seq: seq})
			}
			if got := retained(); got < waiters+msgs {
				t.Fatalf("before Close the node has room for %d entries, want at least %d", got, waiters+msgs)
			}
			closeNet()
			if got := retained(); got != 0 {
				t.Fatalf("after Close the node has room for %d entries, want 0", got)
			}
		})
	}
}
