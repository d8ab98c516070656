package transport

import (
	"fmt"
	"net"
	"sync"
	"time"
)

// LoopbackMesh brings up an n-node TCP full mesh inside this process.
// Every listener binds an ephemeral loopback port first, so the real
// addresses are known before any node starts dialing; template supplies
// the per-node settings (F, D, Observer, …) and the mesh fills in ID,
// Addrs and Listener. All nodes share one Epoch (template's, or now), so
// protocols comparing Now() across nodes see no construction skew. On any
// failure every listener and every node already up is closed.
func LoopbackMesh(n int, template TCPConfig) ([]*TCPNode, error) {
	return loopbackMesh(n, template, NewTCPNode)
}

// loopbackMesh is LoopbackMesh with the node constructor injectable
// (tests fail one node's start to exercise the teardown).
func loopbackMesh(n int, template TCPConfig, start func(TCPConfig) (*TCPNode, error)) ([]*TCPNode, error) {
	lns := make([]net.Listener, 0, n)
	addrs := make([]string, 0, n)
	nodes := make([]*TCPNode, n)
	fail := func(err error) ([]*TCPNode, error) {
		for _, nd := range nodes {
			if nd != nil {
				nd.Close()
			}
		}
		for _, ln := range lns {
			ln.Close() // a node that came up already closed its own; twice is harmless
		}
		return nil, err
	}
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return fail(fmt.Errorf("transport: loopback listen: %w", err))
		}
		lns = append(lns, ln)
		addrs = append(addrs, ln.Addr().String())
	}
	if template.Epoch.IsZero() {
		template.Epoch = time.Now()
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		cfg := template
		cfg.ID, cfg.Addrs, cfg.Listener = i, addrs, lns[i]
		wg.Add(1)
		go func() {
			defer wg.Done()
			nodes[cfg.ID], errs[cfg.ID] = start(cfg)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fail(fmt.Errorf("transport: loopback node %d: %w", i, err))
		}
	}
	return nodes, nil
}
