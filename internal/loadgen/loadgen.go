// Package loadgen drives wall-clock load against an in-process TCP mesh:
// N `aso node`-equivalent processes (real sockets on loopback, the exact
// transport `aso node` deploys) fronted by svc Services, hammered by
// thousands of concurrent client sessions. It is the measurement engine
// behind `aso load` and the `aso bench` wallclock experiment.
//
// Two generation disciplines:
//
//   - closed loop (Rate == 0): each client session issues its next
//     operation as soon as the previous one completes — throughput is
//     demand-bound and latency includes only service time + queueing
//     created by the other sessions;
//   - open loop (Rate > 0): operations are issued on a fixed schedule
//     (Rate ops/sec across all sessions) regardless of completions, the
//     discipline that exposes queueing collapse. A session that falls
//     behind its schedule issues immediately (burst catch-up) rather
//     than silently shedding load.
//
// Each operation goes to a node drawn uniformly: the snapshot object has
// one segment per node, so there is no key to choose, only a node.
package loadgen

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mpsnap/internal/engine"
	"mpsnap/internal/obs"
	"mpsnap/internal/svc"
	"mpsnap/internal/transport"
)

// Config parameterizes one load run. Its JSON form is the "params" of the
// reports `aso load` and the `aso bench` wallclock experiment write.
type Config struct {
	// Engine is the registered engine name (default "eqaso").
	Engine string `json:"engine,omitempty"`
	// N and F size the mesh (default 4 nodes; F = 0 means the most faults
	// the engine's fault model allows among N).
	N int `json:"n,omitempty"`
	F int `json:"f,omitempty"`
	// Clients is the number of concurrent client sessions (default 64).
	Clients int `json:"clients,omitempty"`
	// Duration is the recording window (default 2s); Warmup runs before
	// it and is excluded from every reported number (default 500ms).
	Duration time.Duration `json:"durationNs,omitempty"`
	Warmup   time.Duration `json:"warmupNs,omitempty"`
	// ScanPct is the percentage of operations that are scans (0..100,
	// default 10).
	ScanPct int `json:"scanPct,omitempty"`
	// Rate, when > 0, switches to open-loop generation at Rate ops/sec
	// across all sessions.
	Rate float64 `json:"rate,omitempty"`
	// Payload is the update payload size in bytes (default 16).
	Payload int `json:"payload,omitempty"`
	// Seed drives node choice and the op mix.
	Seed int64 `json:"seed,omitempty"`
	// D is the transport's delay bound passed to the mesh (default 5ms).
	D time.Duration `json:"dNs,omitempty"`
	// MaxPending bounds each node's service queue (default svc default).
	MaxPending int `json:"maxPending,omitempty"`
}

func (c *Config) fill() {
	if c.Engine == "" {
		c.Engine = "eqaso"
	}
	if c.N == 0 {
		c.N = 4
	}
	if c.Clients == 0 {
		c.Clients = 64
	}
	if c.Duration == 0 {
		c.Duration = 2 * time.Second
	}
	if c.Warmup == 0 {
		c.Warmup = 500 * time.Millisecond
	}
	if c.ScanPct == 0 {
		c.ScanPct = 10
	}
	if c.Payload == 0 {
		c.Payload = 16
	}
	if c.D == 0 {
		c.D = 5 * time.Millisecond
	}
}

// LatencySummary is the client-visible latency digest of one op kind, in
// microseconds.
type LatencySummary struct {
	Count uint64  `json:"count"`
	P50   float64 `json:"p50_us"`
	P90   float64 `json:"p90_us"`
	P99   float64 `json:"p99_us"`
	Max   float64 `json:"max_us"`
}

func summarize(h *obs.Histogram) LatencySummary {
	s := h.Snapshot()
	p50, p90, p99, max := s.Summary()
	return LatencySummary{Count: s.Count, P50: p50, P90: p90, P99: p99, Max: max}
}

// Result is one run's report.
type Result struct {
	Engine  string `json:"engine"`
	Clients int    `json:"clients"`
	N       int    `json:"n"`
	// Ops and Errors count operations completed inside the recording
	// window; OpsPerSec is Ops over the window's actual wall time.
	Ops       int64   `json:"ops"`
	Errors    int64   `json:"errors"`
	Seconds   float64 `json:"seconds"`
	OpsPerSec float64 `json:"ops_per_sec"`
	// Update and Scan are client-visible latencies (µs), recording-window
	// operations only.
	Update LatencySummary `json:"update"`
	Scan   LatencySummary `json:"scan"`
	// AllocsPerOp / BytesPerOp are the whole process's allocation deltas
	// across the recording window divided by recorded ops — every layer
	// from client goroutine to socket, not just the transport.
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	// Aggregated service-layer counters across all nodes: amortization is
	// Updates/ProtoUpdates and Scans/ProtoScans.
	SvcUpdates      int64 `json:"svc_updates"`
	SvcScans        int64 `json:"svc_scans"`
	SvcProtoUpdates int64 `json:"svc_proto_updates"`
	SvcProtoScans   int64 `json:"svc_proto_scans"`
	SvcMaxBatch     int   `json:"svc_max_batch"`
}

// Run executes one load run and reports it.
func Run(cfg Config) (Result, error) {
	cfg.fill()
	info, err := engine.Lookup(cfg.Engine)
	if err != nil {
		return Result{}, err
	}
	if cfg.F == 0 {
		cfg.F = info.MaxF(cfg.N)
	}
	if err := info.Validate(cfg.N, cfg.F); err != nil {
		return Result{}, err
	}
	nodes, err := transport.LoopbackMesh(cfg.N, transport.TCPConfig{F: cfg.F, D: cfg.D})
	if err != nil {
		return Result{}, err
	}
	defer func() {
		for _, tn := range nodes {
			tn.Close()
		}
	}()
	services := make([]*svc.Service, cfg.N)
	for i, tn := range nodes {
		eng := info.New(tn.Runtime())
		tn.SetHandler(eng)
		services[i] = svc.New(tn.Runtime(), eng, svc.Options{
			Mode:       svc.ModeFor(cfg.Engine),
			MaxPending: cfg.MaxPending,
		})
	}
	var workers sync.WaitGroup
	for _, s := range services {
		workers.Add(1)
		go func(s *svc.Service) {
			defer workers.Done()
			_ = s.Serve()
		}(s)
	}

	updHist := obs.NewHistogram(obs.DefaultMicrosBuckets())
	scanHist := obs.NewHistogram(obs.DefaultMicrosBuckets())
	var ops, errops atomic.Int64
	start := time.Now()
	warmEnd := start.Add(cfg.Warmup)
	deadline := warmEnd.Add(cfg.Duration)

	// Allocation accounting: snapshot at the warmup boundary and at the
	// end, so warmup's pool-filling and connection setup are excluded.
	var m0, m1 runtime.MemStats
	var memOnce sync.Once
	payload := make([]byte, cfg.Payload)

	oneOp := func(rng *rand.Rand, recording bool) {
		node := rng.Intn(cfg.N)
		scan := rng.Intn(100) < cfg.ScanPct
		t0 := time.Now()
		var err error
		if scan {
			_, err = services[node].Scan()
		} else {
			err = services[node].Update(payload)
		}
		if !recording {
			return
		}
		if err != nil {
			errops.Add(1)
			return
		}
		us := float64(time.Since(t0)) / float64(time.Microsecond)
		if scan {
			scanHist.Observe(us)
		} else {
			updHist.Observe(us)
		}
		ops.Add(1)
	}

	var clients sync.WaitGroup
	var inflight sync.WaitGroup // open-loop ops outlive their session tick
	for c := 0; c < cfg.Clients; c++ {
		c := c
		clients.Add(1)
		go func() {
			defer clients.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(c)*1_000_003))
			if cfg.Rate <= 0 { // closed loop
				for {
					now := time.Now()
					if now.After(deadline) {
						return
					}
					if !now.Before(warmEnd) {
						memOnce.Do(func() { runtime.ReadMemStats(&m0) })
					}
					oneOp(rng, !now.Before(warmEnd))
				}
			}
			// Open loop: fixed per-session schedule, ops issued
			// asynchronously so a slow completion never delays the next
			// arrival. Each op gets its own rng because the session's
			// cannot be shared across concurrent ops.
			interval := time.Duration(float64(cfg.Clients) / cfg.Rate * float64(time.Second))
			next := start.Add(time.Duration(c) * interval / time.Duration(cfg.Clients))
			for {
				now := time.Now()
				if now.After(deadline) {
					return
				}
				if wait := next.Sub(now); wait > 0 {
					time.Sleep(wait)
					now = time.Now()
				}
				tick := next
				next = next.Add(interval)
				if !now.Before(warmEnd) {
					memOnce.Do(func() { runtime.ReadMemStats(&m0) })
				}
				recording := !now.Before(warmEnd)
				inflight.Add(1)
				go func() {
					defer inflight.Done()
					oneOp(rng2(cfg.Seed, c, tick), recording)
				}()
			}
		}()
	}
	clients.Wait()
	inflight.Wait()
	runtime.ReadMemStats(&m1)
	elapsed := time.Since(warmEnd)

	for _, s := range services {
		s.Close()
	}
	workers.Wait()

	res := Result{
		Engine: cfg.Engine, Clients: cfg.Clients, N: cfg.N,
		Ops: ops.Load(), Errors: errops.Load(),
		Seconds: elapsed.Seconds(),
		Update:  summarize(updHist), Scan: summarize(scanHist),
	}
	if res.Seconds > 0 {
		res.OpsPerSec = float64(res.Ops) / res.Seconds
	}
	if res.Ops > 0 {
		res.AllocsPerOp = float64(m1.Mallocs-m0.Mallocs) / float64(res.Ops)
		res.BytesPerOp = float64(m1.TotalAlloc-m0.TotalAlloc) / float64(res.Ops)
	}
	for _, s := range services {
		st := s.Stats()
		res.SvcUpdates += st.Updates
		res.SvcScans += st.Scans
		res.SvcProtoUpdates += st.ProtoUpdates
		res.SvcProtoScans += st.ProtoScans
		if st.MaxBatch > res.SvcMaxBatch {
			res.SvcMaxBatch = st.MaxBatch
		}
	}
	return res, nil
}

// rng2 derives a per-op rng for open-loop goroutines (the session's rng
// cannot be shared across concurrent ops).
func rng2(seed int64, client int, next time.Time) *rand.Rand {
	return rand.New(rand.NewSource(seed ^ int64(client)<<32 ^ next.UnixNano()))
}
