package transport_test

import (
	"net"
	"runtime"
	"testing"
	"time"

	"mpsnap/internal/transport"
)

// settledGoroutines returns runtime.NumGoroutine once it has read the same
// value for several samples in a row: goroutines of earlier tests' closed
// nodes (a clock timer's callback) exit asynchronously.
func settledGoroutines() int {
	last, same := runtime.NumGoroutine(), 0
	for deadline := time.Now().Add(5 * time.Second); same < 5 && time.Now().Before(deadline); {
		time.Sleep(10 * time.Millisecond)
		if n := runtime.NumGoroutine(); n == last {
			same++
		} else {
			last, same = n, 0
		}
	}
	return last
}

// TestTCPConnectionIsOneGoroutine: once every link of a mesh has carried a
// message, a node runs its accept loop, the drainer of its link to itself,
// one send loop per other peer and one receive loop per inbound connection
// — the goroutine that reads a message delivers it, so no connection
// starts a second one, no node dials itself, and the node itself runs
// none.
func TestTCPConnectionIsOneGoroutine(t *testing.T) {
	const n = 3
	before := settledGoroutines()
	nodes, err := transport.LoopbackMesh(n, transport.TCPConfig{D: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, tn := range nodes {
			tn.Close()
		}
	}()
	got := make(chan int, n*n)
	for _, tn := range nodes {
		tn.SetHandler(rtHandlerCapture(got))
	}
	for _, tn := range nodes {
		tn.Runtime().Broadcast(transport.Hello{ID: tn.Runtime().ID()})
	}
	for k := 0; k < n*n; k++ {
		select {
		case <-got:
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d of %d deliveries", k, n*n)
		}
	}
	if want, runs := n*2*n, settledGoroutines()-before; runs != want {
		t.Errorf("a %d-node mesh runs %d goroutines, want %d = n × 2n", n, runs, want)
	}
}

// TestChanNetStartsNoPerNodeGoroutine: a ChanNet runs one drainer per
// directed link and nothing per node — waiters are released by whoever
// leaves a critical section, not by a thread of the node's.
func TestChanNetStartsNoPerNodeGoroutine(t *testing.T) {
	const n = 3
	before := settledGoroutines()
	cnet := transport.NewChanNet(transport.ChanConfig{N: n, D: 5 * time.Millisecond})
	defer cnet.Close()
	if want, runs := n*n, settledGoroutines()-before; runs != want {
		t.Errorf("a %d-node ChanNet runs %d goroutines, want %d = n², the link drainers", n, runs, want)
	}
}

// TestTCPFailedListenLeaksNothing: a NewTCPNode that cannot listen returns
// its error and leaves no goroutine behind (nor a clock timer: one is armed
// only while a waiter is parked).
func TestTCPFailedListenLeaksNothing(t *testing.T) {
	taken, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer taken.Close()
	before := settledGoroutines()
	for i := 0; i < 10; i++ {
		tn, err := transport.NewTCPNode(transport.TCPConfig{
			Addrs: []string{taken.Addr().String()}, D: 5 * time.Millisecond,
		})
		if err == nil {
			tn.Close()
			t.Fatal("NewTCPNode listened on an address already in use")
		}
	}
	if after := settledGoroutines(); after != before {
		t.Errorf("10 failed NewTCPNode calls left %d goroutines behind", after-before)
	}
}
