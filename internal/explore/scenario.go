package explore

import (
	"errors"
	"fmt"

	"mpsnap/internal/engine"
	_ "mpsnap/internal/engine/all" // register every snapshot engine
	"mpsnap/internal/harness"
	"mpsnap/internal/history"
	"mpsnap/internal/la"
	"mpsnap/internal/rt"
	"mpsnap/internal/sim"
)

// Scenario is one row of the explorer's table: a client script (clients and
// scheduled faults) installed on a freshly built n-node cluster, whose
// first Depth scheduling decisions are explored exhaustively.
type Scenario struct {
	Name   string
	N, F   int
	Depth  int
	Script func(c *harness.Cluster)
}

// Scenarios is the explorer's one ordered table, crossed with Objects() by
// `aso explore`, its tests and DESIGN §4's coverage grid.
var Scenarios = []Scenario{
	{Name: "update-then-scan", N: 3, F: 1, Depth: 6, Script: updateThenScan(2)},
	// (A1) comparable bases and (A3) same-node scan monotonicity.
	{Name: "concurrent-updates", N: 3, F: 1, Depth: 4, Script: concurrentUpdates},
	// Node 1's crash is a scheduled event, so where it falls (inside the
	// update's quorum gathering too) is part of the search space.
	{Name: "crash-timing", N: 5, F: 2, Depth: 4, Script: func(c *harness.Cluster) {
		c.W.CrashAt(1, 1)
		updateThenScan(4)(c)
	}},
}

// updateThenScan: node 0 updates, and one tick after it completes node
// scanner scans, strictly later in real time, so a linearizable object
// must show the update under every schedule.
func updateThenScan(scanner int) func(c *harness.Cluster) {
	return func(c *harness.Cluster) {
		done := false
		c.Client(0, func(o *harness.OpRunner) {
			_, err := o.Update()
			done = err == nil
		})
		c.Client(scanner, func(o *harness.OpRunner) {
			if o.P.WaitUntilGlobal("update done", func() bool { return done }) != nil || o.P.Sleep(1) != nil {
				return
			}
			_, _ = o.Scan()
		})
	}
}

// concurrentUpdates: nodes 0 and 1 update while node 2 scans twice.
func concurrentUpdates(c *harness.Cluster) {
	for _, u := range []int{0, 1} {
		c.Client(u, func(o *harness.OpRunner) { _, _ = o.Update() })
	}
	c.Client(2, func(o *harness.OpRunner) {
		for k := 0; k < 2; k++ {
			if _, err := o.Scan(); err != nil || o.P.Sleep(1) != nil {
				return
			}
		}
	})
}

// oneShots are the explorable objects outside the engine registry: the
// paper's Section III-C one-shot sketch and its atomic completion.
var oneShots = map[string]engine.Info{
	"oneshot":        {Name: "oneshot", New: func(r rt.Runtime) engine.Engine { return la.NewOneShotAtomic(r) }},
	"oneshot-sketch": {Name: "oneshot-sketch", New: func(r rt.Runtime) engine.Engine { return la.NewOneShot(r) }},
}

// Objects lists the objects every scenario is crossed with: the registered
// engines, then the atomic one-shot ("oneshot-sketch", which is expected to
// fail, is reachable by name only).
func Objects() []string { return append(engine.Names(), "oneshot") }

// Lookup resolves an explorable object: an engine or a one-shot.
func Lookup(name string) (engine.Info, error) {
	if in, ok := oneShots[name]; ok {
		return in, nil
	}
	in, err := engine.Lookup(name)
	if err != nil {
		return in, fmt.Errorf("%w (or oneshot|oneshot-sketch)", err)
	}
	return in, nil
}

// Explore runs scenario sc on the named object under every schedule of its
// bounded tree (opts.Depth 0 = the row's), checking each history for
// linearizability, or sequential consistency for a Sequential engine. It
// returns a *Violation for the first failing schedule; any other error (an
// unknown name, or a topology Info.Validate rejects) means it did not run.
func Explore(sc Scenario, object string, opts Options) (Result, error) {
	in, err := Lookup(object)
	if err != nil {
		return Result{}, err
	}
	if err := in.Validate(sc.N, sc.F); err != nil {
		return Result{}, err
	}
	if opts.Depth == 0 {
		opts.Depth = sc.Depth
	}
	return Run(opts, cell(sc, in))
}

// cell is one execution of sc on in under a given sequencer: build the
// cluster, run the script, check the history.
func cell(sc Scenario, in engine.Info) func(s sim.Sequencer) error {
	check := (*history.History).CheckLinearizable
	if in.Sequential {
		check = (*history.History).CheckSequentiallyConsistent
	}
	return func(s sim.Sequencer) error {
		c := harness.Build(sim.Config{N: sc.N, F: sc.F, Seed: 1, Sequencer: s}, func(r rt.Runtime) (rt.Handler, harness.Object) {
			e := in.New(r)
			return e, e
		})
		sc.Script(c)
		h, err := c.Run()
		if err != nil {
			return fmt.Errorf("run: %w", err)
		}
		if rep := check(h); !rep.OK {
			return errors.New(rep.Violations[0])
		}
		return nil
	}
}
