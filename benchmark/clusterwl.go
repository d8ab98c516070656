package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"mpsnap/internal/cluster"
	"mpsnap/internal/engine"
	"mpsnap/internal/rt"
	"mpsnap/internal/svc"
	"mpsnap/internal/wal"
)

// walBatch is the fsync batch asonode -wal deploys with.
const walBatch = 8

// flushCost is what one WAL flush costs. The records go to real files, but
// the device behind fsync is modelled: this guest's disk answers in 0.3 ms
// in a quiet minute and in 30 ms in a busy one, and that, not the program,
// was every latency this workload reported (README, "Measured spread"). How
// many flushes sit on an op's path still shows, 0.2 ms apiece.
const flushCost = 200 * time.Microsecond

// modelledDisk writes to a real file and waits flushCost for every Sync.
// It waits by polling, as a driver polls a fast device, and yields between
// polls so that it takes no processor from a goroutine that has work. A
// sleep would not do: the Go runtime rounds a sleep of an idle process up
// to a millisecond or more, by an amount that follows what the scheduler
// happens to be doing, and that became the spread of every latency here.
type modelledDisk struct{ f *os.File }

func (d modelledDisk) Write(p []byte) (int, error) { return d.f.Write(p) }

func (d modelledDisk) Sync() error {
	for t0 := time.Now(); time.Since(t0) < flushCost; {
		runtime.Gosched()
	}
	return nil
}

// clusterTimeout keeps the router from retrying a request that is merely
// waiting behind an fsync: the 20 D default is 20 ms at tickD.
const clusterTimeout = 2000 * rt.TicksPerD

// clusterWorkload is the sharded durable deployment: cluster.Node routers
// over shards × members TCP nodes, each shard an eqaso cluster behind svc
// with a WAL (gc on) on real files, driven open-loop.
type clusterWorkload struct {
	shards, members, f int
	scanPct            int
	payload            int
	keys               int
	zipfS              float64
	burst              int // ops due together every burstEvery: the offered rate, fixed
}

func (w clusterWorkload) spec(seconds float64) opSpec {
	warm, measured := burstSpec(w.burst, seconds)
	return opSpec{
		warm: warm, measured: measured,
		scanPct: w.scanPct, nodes: w.shards * w.members, payload: w.payload,
		keys: w.keys, zipfS: w.zipfS,
	}
}

type clusterStack struct {
	*mesh
	nodes   []*cluster.Node
	files   []*os.File
	dir     string
	workers sync.WaitGroup
}

func (w clusterWorkload) build(l *opList, tr *tracer) (*clusterStack, error) {
	m := cluster.ContiguousMap(w.shards, w.members, w.f, 0)
	if tr != nil {
		tr.clusterTopology(m, l.keys)
	}
	total := m.NumNodes()
	msh, err := dialMesh(total, w.f, tr)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(scratchDir(), "wal-")
	if err != nil {
		msh.close()
		return nil, err
	}
	st := &clusterStack{mesh: msh, nodes: make([]*cluster.Node, total), files: make([]*os.File, total), dir: dir}
	info := engine.MustLookup("eqaso")
	for id, tn := range msh.nodes {
		f, err := os.OpenFile(filepath.Join(dir, fmt.Sprintf("node%d.wal", id)), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			st.close()
			return nil, err
		}
		st.files[id] = f
		cfg := cluster.Config{
			Map:        m,
			Timeout:    clusterTimeout,
			SvcOptions: svc.Options{DirectWait: true, AdaptiveWindow: true},
			NewEngine: func(shard int, r rt.Runtime) (rt.Handler, svc.Object) {
				eng := info.New(r)
				var file wal.File = modelledDisk{f}
				if tr != nil {
					file = tr.wrapFile(id, file)
				}
				eng.(engine.Durable).AttachWAL(wal.NewWriter(file, walBatch), true)
				if tr != nil {
					return eng, tr.wrapObject(id, eng)
				}
				return eng, eng
			},
		}
		if tr != nil {
			cfg.SvcOptions.Observer = tr.svcObserver(id)
		}
		nd, err := cluster.NewNode(tn.Runtime(), cfg)
		if err != nil {
			st.close()
			return nil, err
		}
		st.nodes[id] = nd
		var h rt.Handler = nd.Handler()
		if tr != nil {
			h = tr.wrapHandler(id, h)
		}
		tn.SetHandler(h)
	}
	for _, nd := range st.nodes {
		for _, s := range nd.Services() {
			st.workers.Add(1)
			go func(s *svc.Service) {
				defer st.workers.Done()
				_ = s.Serve()
			}(s)
		}
		st.workers.Add(1)
		go func(nd *cluster.Node) {
			defer st.workers.Done()
			_ = nd.ServeRouter()
		}(nd)
	}
	return st, nil
}

func (st *clusterStack) close() {
	for _, nd := range st.nodes {
		if nd != nil {
			nd.Close()
		}
	}
	st.workers.Wait()
	st.mesh.close()
	for _, f := range st.files {
		if f != nil {
			f.Close()
		}
	}
	os.RemoveAll(st.dir)
}

func (st *clusterStack) services() []*svc.Service {
	var out []*svc.Service
	for _, nd := range st.nodes {
		out = append(out, nd.Services()...)
	}
	return out
}

func (w clusterWorkload) run(l *opList, tr *tracer) (*rep, error) {
	return runOpenLoop(l, tr, w.burst, func() (stack, opFunc, error) {
		st, err := w.build(l, tr)
		if err != nil {
			return nil, nil, err
		}
		return st, clusterDo(st.nodes, w.shards, w.members, l, tr), nil
	})
}

// scratchDir is where run-time files go: inside the checkout, next to
// the build cache, never the system temp directory.
func scratchDir() string {
	dir := filepath.Join(".bench_build", "tmp")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "."
	}
	return dir
}
