package bench

import (
	"fmt"
	"math/rand"

	"mpsnap/internal/harness"
	"mpsnap/internal/rt"
	"mpsnap/internal/sim"
	"mpsnap/internal/svc"
)

// ThroughputConfig is one throughput measurement: Clients concurrent
// client threads per node drive the object through the svc layer, either
// batched (UPDATE coalescing + SCAN sharing) or serialized (the classic
// one-operation-at-a-time client, the baseline).
type ThroughputConfig struct {
	N, F         int
	Clients      int // concurrent client threads per node
	OpsPerClient int
	ScanRatio    float64
	Seed         int64
	Batched      bool // false = serialize (one protocol op per client op)
	Check        bool
}

// ThroughputResult is one measured throughput run. Throughput is reported
// in completed operations per D of virtual time (the simulator's unit of
// maximum message delay); ratios between runs are delay-model-free.
type ThroughputResult struct {
	ThroughputConfig
	Ops       int     // completed operations
	VirtTimeD float64 // virtual makespan in D units
	OpsPerD   float64 // Ops / VirtTimeD — the throughput figure
	ProtoOps  int64   // protocol operations issued by the services
	MaxBatch  int     // largest coalesced update batch
}

// serveAll fronts every node of c with a svc.Service and starts its worker.
func serveAll(c *harness.Cluster, opts svc.Options) []*svc.Service {
	services := make([]*svc.Service, len(c.Objects))
	for i, obj := range c.Objects {
		s := svc.New(c.W.Runtime(i), obj, opts)
		services[i] = s
		c.W.GoNode(fmt.Sprintf("svc-%d", i), i, func(p *sim.Proc) { _ = s.Serve() })
	}
	return services
}

// RunThroughput executes one throughput configuration on the simulator
// with the constant-D delay model.
func RunThroughput(cfg ThroughputConfig) (ThroughputResult, error) {
	res := ThroughputResult{ThroughputConfig: cfg}
	c := build(sim.Config{N: cfg.N, F: cfg.F, Seed: cfg.Seed, Delay: sim.Constant{Ticks: rt.TicksPerD}}, EQASO)

	services := serveAll(c, svc.Options{Serialize: !cfg.Batched})

	total := cfg.N * cfg.Clients
	done := 0
	for i := 0; i < cfg.N; i++ {
		for cid := 0; cid < cfg.Clients; cid++ {
			seed := cfg.Seed*7919 + int64(i*cfg.Clients+cid)
			c.ClientOn(i, services[i], func(o *harness.OpRunner) {
				defer func() { done++ }()
				mixedOps(o, rand.New(rand.NewSource(seed)), cfg.OpsPerClient, cfg.ScanRatio)
			})
		}
	}
	c.W.Go("svc-closer", func(p *sim.Proc) {
		_ = p.WaitUntilGlobal("all clients done", func() bool { return done == total })
		for _, s := range services {
			s.Close()
		}
	})

	h, err := c.Run()
	if err != nil {
		return res, fmt.Errorf("throughput n=%d clients=%d batched=%v: %w", cfg.N, cfg.Clients, cfg.Batched, err)
	}
	st := harness.Latencies(h)
	res.Ops = st.Count
	res.VirtTimeD = c.W.Stats().Now.DUnits()
	res.OpsPerD = ratio(float64(res.Ops), res.VirtTimeD)
	for _, s := range services {
		sst := s.Stats()
		res.ProtoOps += sst.ProtoUpdates + sst.ProtoScans
		if sst.MaxBatch > res.MaxBatch {
			res.MaxBatch = sst.MaxBatch
		}
	}
	if cfg.Check {
		if rep := h.CheckLinearizable(); !rep.OK {
			return res, fmt.Errorf("throughput n=%d clients=%d batched=%v: history check failed: %s",
				cfg.N, cfg.Clients, cfg.Batched, rep.Violations[0])
		}
	}
	return res, nil
}

// ThroughputPoint pairs the batched and serialized measurements at one
// (n, clients) coordinate, for the JSON perf artifact.
type ThroughputPoint struct {
	N          int     `json:"n"`
	Clients    int     `json:"clientsPerNode"`
	Ops        int     `json:"ops"`
	BatchedOps float64 `json:"batchedOpsPerD"`
	SerialOps  float64 `json:"serializedOpsPerD"`
	Speedup    float64 `json:"speedup"`
	MaxBatch   int     `json:"maxBatch"`
	ProtoOps   int64   `json:"batchedProtoOps"`
}

// throughput measures service-layer throughput (ops per D of virtual
// time) against the one-op-at-a-time baseline across cluster sizes and
// client counts. Histories are checked at the smaller client counts
// (checking 4096-op histories is the run's dominant cost, the protocol
// behaviour is identical).
func throughput(p Params) (*Report, error) {
	ns, clientCounts, opsPerClient := []int{8, 16}, []int{1, 4, 16, 64}, 2
	if p.Quick {
		clientCounts = []int{1, 16, 64}
	}
	var points []ThroughputPoint
	t := Table{Title: "Service-layer throughput vs concurrent clients (EQ-ASO, constant-D delays, 50/50 mix)\n"}
	t.Row("n\tclients/node\tops\tbatched ops/D\tserialized ops/D\tspeedup\tmax batch")
	for _, n := range ns {
		for _, clients := range clientCounts {
			cfg := ThroughputConfig{
				N: n, F: (n - 1) / 2, Clients: clients, OpsPerClient: opsPerClient,
				ScanRatio: 0.5, Seed: p.Seed, Batched: true, Check: n*clients*opsPerClient <= 512,
			}
			batched, err := RunThroughput(cfg)
			if err != nil {
				return nil, err
			}
			cfg.Batched = false
			serial, err := RunThroughput(cfg)
			if err != nil {
				return nil, err
			}
			speedup := ratio(batched.OpsPerD, serial.OpsPerD)
			t.Row("%d\t%d\t%d\t%.2f\t%.2f\t%.1f×\t%d",
				n, clients, batched.Ops, batched.OpsPerD, serial.OpsPerD, speedup, batched.MaxBatch)
			points = append(points, ThroughputPoint{
				N: n, Clients: clients, Ops: batched.Ops,
				BatchedOps: round2(batched.OpsPerD), SerialOps: round2(serial.OpsPerD),
				Speedup: round2(speedup), MaxBatch: batched.MaxBatch, ProtoOps: batched.ProtoOps,
			})
		}
	}
	t.Notes = "shape: batched throughput grows with the client count (two protocol ops serve a whole queue drain);\n" +
		"serialized throughput stays flat — the gap is the amortization win.\n"
	return &Report{
		Params: map[string]any{"ns": ns, "clientsPerNode": clientCounts, "opsPerClient": opsPerClient},
		Points: points,
		Table:  t,
	}, nil
}

func round2(x float64) float64 { return float64(int(x*100+0.5)) / 100 }
