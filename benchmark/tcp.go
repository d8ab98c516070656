package main

import (
	"fmt"
	"net"
	"sync"
	"time"

	"mpsnap/internal/engine"
	"mpsnap/internal/history"
	"mpsnap/internal/rt"
	"mpsnap/internal/svc"
	"mpsnap/internal/transport"
)

// tickD makes one rt tick one microsecond on the TCP transport
// (rt.TicksPerD ticks per D), so observer timestamps read as µs.
const tickD = time.Millisecond

// monitorWindow is 20 ms at tickD, several times the p99 latency of the
// TCP workloads: long enough to hold every op concurrent with a scan,
// short enough that replaying a repetition takes a second or two.
const monitorWindow = 20 * rt.TicksPerD

// maxFrame is the deployment's frame cap. eqaso ships whole views in one
// frame once a node has to borrow, and without a WAL nothing prunes the
// history, so the 4 MiB default would drop those frames mid-run.
const maxFrame = 64 << 20

// mesh is an in-process TCP loopback mesh: real sockets between the
// nodes, which is the system under test; clients call in directly.
type mesh struct {
	nodes []*transport.TCPNode
	epoch time.Time
}

// dialMesh binds every listener first so the addresses are known, then
// brings all nodes up concurrently (each dials all the others).
func dialMesh(n, f int, tr *tracer) (*mesh, error) {
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, fmt.Errorf("listen: %w", err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	m := &mesh{nodes: make([]*transport.TCPNode, n), epoch: time.Now()}
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cfg := transport.TCPConfig{ID: i, Addrs: addrs, F: f, D: tickD, Listener: lns[i], Epoch: m.epoch, MaxFrame: maxFrame}
			if tr != nil {
				cfg.Observer = tr.transportObserver()
			}
			m.nodes[i], errs[i] = transport.NewTCPNode(cfg)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			m.close()
			return nil, fmt.Errorf("tcp node %d: %w", i, err)
		}
	}
	if tr != nil {
		tr.clock = func() int64 { return int64(time.Since(m.epoch) / time.Microsecond) }
	}
	return m, nil
}

func (m *mesh) close() {
	for _, tn := range m.nodes {
		if tn != nil {
			tn.Close()
		}
	}
}

func (m *mesh) transportErrors() int {
	n := 0
	for _, tn := range m.nodes {
		n += len(tn.Errors())
	}
	return n
}

// svcStack is transport → engine → svc on every node of a mesh.
type svcStack struct {
	*mesh
	svcs    []*svc.Service
	workers sync.WaitGroup
}

func buildSvcStack(engName string, n, f int, tr *tracer) (*svcStack, error) {
	m, err := dialMesh(n, f, tr)
	if err != nil {
		return nil, err
	}
	st := &svcStack{mesh: m, svcs: make([]*svc.Service, n)}
	if tr != nil {
		tr.rec = history.NewRecorder(n)
	}
	info := engine.MustLookup(engName)
	for i, tn := range m.nodes {
		r := tn.Runtime()
		eng := info.New(r)
		var h rt.Handler = eng
		var obj svc.Object = eng
		opts := svc.Options{Mode: svc.ModeFor(engName), DirectWait: true, AdaptiveWindow: true}
		if tr != nil {
			h, obj = tr.wrapHandler(i, eng), tr.wrapObject(i, eng)
			opts.Observer = tr.svcObserver(i)
		}
		tn.SetHandler(h)
		st.svcs[i] = svc.New(r, obj, opts)
	}
	for _, s := range st.svcs {
		st.workers.Add(1)
		go func(s *svc.Service) {
			defer st.workers.Done()
			_ = s.Serve() // nil after Close; no node crashes here
		}(s)
	}
	return st, nil
}

func (st *svcStack) services() []*svc.Service { return st.svcs }

func (st *svcStack) close() {
	for _, s := range st.svcs {
		s.Close()
	}
	st.workers.Wait()
	st.mesh.close()
}

// tcpWorkload is an open-loop workload on the transport→engine→svc stack.
type tcpWorkload struct {
	engine  string
	n, f    int
	scanPct int
	payload int
	burst   int // ops due together every burstEvery: the offered rate, fixed
}

func (w tcpWorkload) spec(seconds float64) opSpec {
	warm, measured := burstSpec(w.burst, seconds)
	return opSpec{warm: warm, measured: measured, scanPct: w.scanPct, nodes: w.n, payload: w.payload}
}

func (w tcpWorkload) run(l *opList, tr *tracer) (*rep, error) {
	r, err := runOpenLoop(l, tr, w.burst, func() (stack, opFunc, error) {
		st, err := buildSvcStack(w.engine, w.n, w.f, tr)
		if err != nil {
			return nil, nil, err
		}
		return st, svcDo(st.svcs, l, tr), nil
	})
	if err == nil && tr != nil {
		tr.checkHistory(tr.rec.History(), w.n, monitorWindow)
	}
	return r, err
}
