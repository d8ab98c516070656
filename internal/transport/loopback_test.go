package transport_test

import (
	"errors"
	"net"
	"os"
	"testing"
	"time"

	"mpsnap/internal/transport"
)

// openFDs counts this process's open descriptors (Linux /proc only).
func openFDs(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd: %v", err)
	}
	return len(ents)
}

// TestLoopbackMesh: the mesh is fully connected, every node carries its
// own ID over the template's settings, and all nodes share one epoch.
func TestLoopbackMesh(t *testing.T) {
	const n = 4
	nodes, err := transport.LoopbackMesh(n, transport.TCPConfig{F: 1, D: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan int, n*n)
	for i, tn := range nodes {
		defer tn.Close()
		r := tn.Runtime()
		if r.ID() != i || r.N() != n || r.F() != 1 {
			t.Fatalf("node %d: ID=%d N=%d F=%d", i, r.ID(), r.N(), r.F())
		}
		if !tn.Epoch().Equal(nodes[0].Epoch()) {
			t.Fatalf("node %d epoch %v != node 0 epoch %v", i, tn.Epoch(), nodes[0].Epoch())
		}
		tn.SetHandler(rtHandlerCapture(got))
	}
	for _, tn := range nodes {
		tn.Runtime().Broadcast(transport.Hello{ID: tn.Runtime().ID()})
	}
	for k := 0; k < n*n; k++ {
		select {
		case <-got:
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d of %d deliveries: mesh not fully connected", k, n*n)
		}
	}

	// A caller-chosen epoch is kept.
	epoch := time.Now().Add(-time.Hour)
	pair, err := transport.LoopbackMesh(2, transport.TCPConfig{Epoch: epoch})
	if err != nil {
		t.Fatal(err)
	}
	for _, tn := range pair {
		if !tn.Epoch().Equal(epoch) {
			t.Errorf("template epoch not kept: %v", tn.Epoch())
		}
		tn.Close()
	}
}

// TestLoopbackMeshTeardown: when one node fails to come up while its
// peers succeed, the error is returned and no listener (the failed node's
// is owned by nobody) or connection outlives the call.
func TestLoopbackMeshTeardown(t *testing.T) {
	// Warm the runtime's netpoller so its descriptors are in the baseline.
	if warm, err := transport.LoopbackMesh(1, transport.TCPConfig{}); err == nil {
		warm[0].Close()
	}
	before := openFDs(t)
	var addrs []string
	nodes, err := transport.LoopbackMeshWith(4, transport.TCPConfig{F: 1},
		func(cfg transport.TCPConfig) (*transport.TCPNode, error) {
			if cfg.ID == 2 {
				addrs = cfg.Addrs
				return nil, errors.New("injected start failure")
			}
			return transport.NewTCPNode(cfg)
		})
	if err == nil || nodes != nil {
		t.Fatalf("mesh formed: nodes=%v err=%v", nodes, err)
	}
	if len(addrs) != 4 {
		t.Fatalf("node 2 saw addrs %v", addrs)
	}
	for _, addr := range addrs {
		if c, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
			c.Close()
			t.Errorf("listener %s still accepting after failed mesh", addr)
		}
	}
	if after := openFDs(t); after > before {
		t.Errorf("descriptors leaked: %d before, %d after", before, after)
	}
}
