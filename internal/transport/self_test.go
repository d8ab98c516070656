package transport_test

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"mpsnap/internal/rt"
	"mpsnap/internal/transport"
)

// unregisteredMsg has no wire codec: a TCP node can only ever deliver it to
// itself, and only by reference.
type unregisteredMsg struct{ p *int }

func (unregisteredMsg) Kind() string { return "unregistered" }

// waitFor polls cond for up to 5s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("still waiting after 5s: %s", what)
		}
	}
}

// TestTCPSelfDeliveryIsByReference: a message a TCP node sends to itself
// touches no socket and no codec — a type that is not wire-registered
// still reaches the node's own handler, and it is the value that was sent,
// not a decoded copy.
func TestTCPSelfDeliveryIsByReference(t *testing.T) {
	got := make(chan unregisteredMsg, 1)
	nodes := startRawMesh(t, []rt.Handler{
		rt.HandlerFunc(func(src int, msg rt.Message) {
			if m, ok := msg.(unregisteredMsg); ok && src == 0 {
				got <- m
			}
		}),
		&fifoHandler{},
	})
	sent := unregisteredMsg{p: new(int)}
	nodes[0].Runtime().Send(0, sent)
	select {
	case m := <-got:
		if m.p != sent.p {
			t.Error("self-delivered message is a copy, not the value sent")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a message to the node itself was never delivered")
	}
	if errs := nodes[0].Errors(); len(errs) != 0 {
		t.Errorf("self-delivery reported errors: %v", errs)
	}
}

// TestTCPSelfDeliveryFollowsCrash: while a node is crashed the messages it
// sends itself are dropped; after Restart they flow again, to the new
// incarnation's handler only.
func TestTCPSelfDeliveryFollowsCrash(t *testing.T) {
	var before, after atomic.Int64
	nodes := startRawMesh(t, []rt.Handler{
		rt.HandlerFunc(func(int, rt.Message) { before.Add(1) }),
		&fifoHandler{},
	})
	tn := nodes[0]
	r := tn.Runtime()
	r.Send(0, benchMsg{Seq: 0})
	waitFor(t, "the first self-delivery", func() bool { return before.Load() == 1 })

	tn.Crash()
	for seq := 1; seq <= 10; seq++ {
		r.Send(0, benchMsg{Seq: seq})
	}
	tn.Restart(rt.HandlerFunc(func(int, rt.Message) { after.Add(1) }))
	r.Send(0, benchMsg{Seq: 11})
	waitFor(t, "self-delivery after Restart", func() bool { return after.Load() == 1 })
	time.Sleep(20 * time.Millisecond) // room for a wrongly kept message to arrive
	if b, a := before.Load(), after.Load(); b != 1 || a != 1 {
		t.Errorf("old handler got %d, new got %d; want 1 and 1 (sends while crashed are dropped)", b, a)
	}
}

// TestTCPIdleMeshHoldsNoQueues bounds what a closed, never-used mesh
// retains: link queues grow with use, so 64 directed links of an 8-node
// mesh must not hold a preallocated buffer each (a 16,384-slot channel per
// peer was 256 KiB a link, 16.8 MB for this mesh).
func TestTCPIdleMeshHoldsNoQueues(t *testing.T) {
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	nodes, err := transport.LoopbackMesh(8, transport.TCPConfig{D: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	// Close first: receive buffers die with their connections, so what is
	// left is what the nodes themselves hold.
	for _, tn := range nodes {
		tn.Close()
	}
	with := heap()
	runtime.KeepAlive(nodes)
	without := heap()
	if with > without && with-without >= 1<<20 {
		t.Errorf("an idle 8-node mesh retains %.1f MB, want < 1", float64(with-without)/1e6)
	}
}
