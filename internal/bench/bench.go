// Package bench is the harness that regenerates the paper's evaluation
// artifacts: the Table I complexity comparison and the claim-by-claim
// latency experiments (√k scaling, amortized constant time, failure-free
// constant time, Byzantine behaviour, SSO fast scans, lattice agreement).
// All time is virtual, measured in units of the maximum message delay D;
// every run uses the worst-case delay model (every message takes exactly
// D) unless stated otherwise, so measured latencies correspond directly to
// the paper's complexity expressions.
package bench

import (
	"fmt"
	"math/rand"

	"mpsnap/internal/baseline/laaso"
	"mpsnap/internal/engine"
	_ "mpsnap/internal/engine/all" // register every snapshot engine
	"mpsnap/internal/eqaso"
	"mpsnap/internal/harness"
	"mpsnap/internal/history"
	"mpsnap/internal/la"
	"mpsnap/internal/rt"
	"mpsnap/internal/sim"
)

// Algo names the engines the harness can run (registry names).
type Algo string

// Algorithms.
const (
	EQASO        Algo = "eqaso"
	ByzASO       Algo = "byzaso"
	SSOFast      Algo = "sso"
	Delporte     Algo = "delporte"
	StoreCollect Algo = "storecollect"
	Stacked      Algo = "stacked"
	LAASO        Algo = "laaso"
	ACR          Algo = "acr"
	Fastsnap     Algo = "fastsnap"
)

// TableAlgos is the Table I row order.
func TableAlgos() []Algo {
	return []Algo{Delporte, StoreCollect, Stacked, LAASO, ByzASO, EQASO, SSOFast}
}

// build brings up a simulated cluster of engine a via the registry (an
// unregistered name is a bug in this package: it panics).
func build(cfg sim.Config, a Algo) *harness.Cluster {
	in := engine.MustLookup(string(a))
	return harness.Build(cfg, func(r rt.Runtime) (rt.Handler, harness.Object) {
		e := in.New(r)
		return e, e
	})
}

// Faults selects the fault injection of a run.
type Faults struct {
	// Crashes crashes nodes 0..Crashes-1 at staggered times.
	Crashes int
	// Chains, if true, realizes the paper's failure-chain worst case
	// (Definition 11) instead of plain crashes: the crashing nodes form
	// chains of increasing length whose heads issue the exposed values.
	// Only meaningful for algorithms that forward values (EQ-ASO, SSO).
	Chains bool
}

// Config is one measured run.
type Config struct {
	Algo       Algo
	N, F       int
	OpsPerNode int     // operations per live node
	ScanRatio  float64 // fraction of scans (0.5 default-ish; set explicitly)
	Seed       int64
	Faults     Faults
	// Check verifies the history (linearizability, or sequential
	// consistency for SSO) after the run.
	Check bool
	// Observer, if set, receives message events from the simulator and
	// operation events from every node that supports SetObserver
	// (EQ-ASO, SSO, Byz-ASO). The latency experiment feeds it an
	// obs.Metrics to get per-op histograms in D-units.
	Observer rt.Observer
}

// Result is one run's measurements.
type Result struct {
	Config
	K           int // actual failures injected
	Ops         int
	Msgs        int64
	VirtTimeD   float64
	WorstUpd    float64
	WorstScan   float64
	MeanUpd     float64
	MeanScan    float64
	MeanAll     float64
	P50, P99    float64
	CheckPassed bool
}

// chainKey identifies forwardable value messages for the chain adversary.
func chainKey(m rt.Message) (any, bool) {
	switch msg := m.(type) {
	case eqaso.MsgValue:
		return msg.Val.TS, true
	case laaso.MsgValue:
		return msg.Val.TS, true
	case la.OSValue:
		return msg.Val.TS, true
	}
	return nil, false
}

// chainFaults builds the Definition 11 failure chains over nodes 0..k-1 of
// cfg's cluster and arms cfg with the adversary that realizes them; used
// is how many of the k nodes the chains consumed.
func chainFaults(cfg *sim.Config, k int) (chains []sim.ChainSpec, used int) {
	pool := make([]int, k)
	for i := range pool {
		pool[i] = i
	}
	chains, used = sim.BuildChains(pool, k, cfg.N-1)
	if used > 0 {
		cfg.Adversary = sim.NewFailureChains(chainKey, chains...)
	}
	return chains, used
}

// mixedOps issues ops operations, each a scan with probability scanRatio
// and an update otherwise, stopping at the first error (the node crashed).
func mixedOps(o *harness.OpRunner, rng *rand.Rand, ops int, scanRatio float64) {
	for k := 0; k < ops; k++ {
		var err error
		if rng.Float64() < scanRatio {
			_, err = o.Scan()
		} else {
			_, err = o.Update()
		}
		if err != nil {
			return
		}
	}
}

// Run executes one configuration and returns its measurements.
func Run(cfg Config) (Result, error) {
	res := Result{Config: cfg}
	simCfg := sim.Config{N: cfg.N, F: cfg.F, Seed: cfg.Seed, Observer: cfg.Observer,
		Delay: sim.Constant{Ticks: rt.TicksPerD}}

	// res.K nodes are fault-designated; the first live node is res.K.
	var chains []sim.ChainSpec
	if cfg.Faults.Chains && cfg.Faults.Crashes > 0 {
		chains, res.K = chainFaults(&simCfg, cfg.Faults.Crashes)
	} else {
		res.K = cfg.Faults.Crashes
	}
	liveFrom := res.K

	c := build(simCfg, cfg.Algo)
	if cfg.Observer != nil {
		for _, o := range c.Objects {
			if so, ok := o.(interface{ SetObserver(rt.Observer) }); ok {
				so.SetObserver(cfg.Observer)
			}
		}
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	if cfg.Faults.Chains {
		// Chain heads invoke one update each; the adversary crashes
		// them mid-broadcast, creating the exposed values.
		for _, ch := range chains {
			head := ch.Nodes[0]
			c.Client(head, func(o *harness.OpRunner) {
				_, _ = o.Update()
			})
		}
	} else {
		for victim := 0; victim < cfg.Faults.Crashes; victim++ {
			c.W.CrashAt(victim, rt.Ticks(rng.Int63n(int64(10*rt.TicksPerD)))+1)
		}
		// Crashing nodes still run clients until they die.
		for victim := 0; victim < cfg.Faults.Crashes; victim++ {
			victim := victim
			c.Client(victim, func(o *harness.OpRunner) {
				for k := 0; k < cfg.OpsPerNode; k++ {
					if _, err := o.Update(); err != nil {
						return
					}
				}
			})
		}
	}

	// Live nodes: staggered mixed workloads. Their latencies are what we
	// report (pending ops of crashed nodes have no response event).
	for i := liveFrom; i < cfg.N; i++ {
		i := i
		c.Client(i, func(o *harness.OpRunner) {
			rng := rand.New(rand.NewSource(cfg.Seed*7919 + int64(i)))
			_ = o.P.Sleep(rt.Ticks(rng.Int63n(int64(2 * rt.TicksPerD))))
			mixedOps(o, rng, cfg.OpsPerNode, cfg.ScanRatio)
		})
	}

	h, err := c.Run()
	if err != nil {
		return res, fmt.Errorf("bench %s: %w", cfg.Algo, err)
	}
	st := harness.Latencies(h)
	ws := c.W.Stats()
	res.Ops = st.Count
	res.Msgs = ws.MsgsTotal
	res.VirtTimeD = ws.Now.DUnits()
	res.WorstUpd, res.WorstScan = st.WorstUpdate, st.WorstScan
	res.MeanUpd, res.MeanScan = st.MeanUpdate, st.MeanScan
	res.MeanAll = st.MeanAll
	res.P50, res.P99 = st.P50All, st.P99All
	res.CheckPassed = !cfg.Check || consistent(cfg.Algo, h)
	if !res.CheckPassed {
		return res, fmt.Errorf("bench %s: history check failed", cfg.Algo)
	}
	return res, nil
}

// consistent checks h against engine a's contract: sequential consistency
// for the SSOs, linearizability for every other engine.
func consistent(a Algo, h *history.History) bool {
	if engine.MustLookup(string(a)).Sequential {
		return h.CheckSequentiallyConsistent().OK
	}
	return h.CheckLinearizable().OK
}
