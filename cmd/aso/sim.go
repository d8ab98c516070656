package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strings"

	"mpsnap"
)

// workload is the seeded update/scan client loop `sim` and `fuzz` run on
// the simulator: every node's client issues Ops operations, each a scan
// with probability ScanRatio, thinking for a random time below Think in
// between. Node i draws from its own stream, seeded ClientSeed + i.
type workload struct {
	topology
	Ops        int
	ScanRatio  float64
	Think      mpsnap.Ticks
	ClientSeed int64
	Constant   bool
	Crashes    []mpsnap.CrashSpec
	// Log, if set, receives one line per completed operation.
	Log io.Writer
}

// crashSchedule crashes nodes 0..k-1 at times drawn from rng below within.
func crashSchedule(rng *rand.Rand, k int, within mpsnap.Ticks) []mpsnap.CrashSpec {
	var out []mpsnap.CrashSpec
	for v := 0; v < k; v++ {
		out = append(out, mpsnap.CrashSpec{Node: v, At: mpsnap.Ticks(rng.Int63n(int64(within)))})
	}
	return out
}

// cluster builds the simulated cluster with every client spawned; the
// caller runs and checks it.
func (wl workload) cluster() (*mpsnap.SimCluster, error) {
	cfg := mpsnap.Config{N: wl.N, F: wl.F, Algorithm: mpsnap.Algorithm(wl.Engine), Seed: wl.Seed, Crashes: wl.Crashes}
	if wl.Constant {
		cfg.Delay = mpsnap.DelayConstant
	}
	cluster, err := mpsnap.NewSimCluster(cfg)
	if err != nil {
		return nil, err
	}
	for i := 0; i < wl.N; i++ {
		i := i
		cluster.Client(i, func(c *mpsnap.Client) {
			rng := rand.New(rand.NewSource(wl.ClientSeed + int64(i)))
			for k := 1; k <= wl.Ops; k++ {
				start := c.Now()
				var op string
				var err error
				if rng.Float64() < wl.ScanRatio {
					var snap [][]byte
					snap, err = c.Scan()
					op = "SCAN -> " + renderSnap(snap)
				} else {
					v := fmt.Sprintf("v%d-%d", i, k)
					err = c.Update([]byte(v))
					op = "UPDATE(" + v + ")"
				}
				if err != nil { // crashed node
					if wl.Log != nil {
						fmt.Fprintf(wl.Log, "node %d stopped: %v\n", i, err)
					}
					return
				}
				if wl.Log != nil {
					fmt.Fprintf(wl.Log, "t=%7.2fD node %d %s (%.2fD)\n", c.Now().DUnits(), i, op, (c.Now() - start).DUnits())
				}
				_ = c.Sleep(mpsnap.Ticks(rng.Int63n(int64(wl.Think))))
			}
		})
	}
	return cluster, nil
}

func renderSnap(snap [][]byte) string {
	segs := make([]string, len(snap))
	for i, s := range snap {
		segs[i] = "⊥"
		if s != nil {
			segs[i] = string(s)
		}
	}
	return "[" + strings.Join(segs, " ") + "]"
}

// runSim runs one simulated snapshot-object workload and reports the
// checked history: flags select the engine, cluster size, workload, delay
// model and crash schedule; it prints per-operation latencies and the
// (A1)-(A4) checker verdict (or the sequential-consistency verdict for SSO
// engines). With -check it re-verifies a dumped history instead.
func runSim(args []string, out io.Writer) error {
	wl := workload{topology: topology{Engine: "eqaso", N: 5, Seed: 1}, Think: 3 * mpsnap.D}
	fs := flag.NewFlagSet("aso sim", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	wl.register(fs, flagEngine, flagN, flagF, flagSeed)
	fs.IntVar(&wl.Ops, "ops", 4, "operations per node")
	fs.Float64Var(&wl.ScanRatio, "scan-ratio", 0.5, "fraction of scans in the workload")
	fs.BoolVar(&wl.Constant, "constant-delay", false, "every message takes exactly D (default: uniform)")
	crashes := fs.Int("crashes", 0, "number of nodes to crash at random times")
	verbose := fs.Bool("v", false, "print every operation")
	gantt := fs.Bool("gantt", false, "draw the history as an ASCII space-time diagram")
	trace := fs.Bool("trace", false, "print every message send/delivery and crash")
	dump := fs.String("dump", "", "write the recorded history as JSON to this file")
	check := fs.String("check", "", "skip simulation: load a history JSON file and check it")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *check != "" {
		return checkHistory(*check, *gantt, out)
	}
	if err := wl.resolve(); err != nil {
		return err
	}
	wl.ClientSeed = wl.Seed * 1009
	wl.Crashes = crashSchedule(rand.New(rand.NewSource(wl.Seed)), *crashes, 20*mpsnap.D)
	if *verbose {
		wl.Log = out
	}
	cluster, err := wl.cluster()
	if err != nil {
		return err
	}
	if *trace {
		cluster.Trace(func(line string) { fmt.Fprintln(out, line) })
	}
	if err := cluster.Run(); err != nil {
		return fmt.Errorf("simulation: %w", err)
	}
	if *gantt {
		fmt.Fprintln(out, cluster.RenderHistory(110))
	}
	if *dump != "" {
		if err := dumpHistory(*dump, cluster.DumpHistory, out); err != nil {
			return err
		}
	}
	st := cluster.Stats()
	fmt.Fprintf(out, "algorithm=%s n=%d f=%d crashes=%d seed=%d\n", wl.Engine, wl.N, wl.F, *crashes, wl.Seed)
	fmt.Fprintf(out, "  %d operations, %d messages, %.1fD virtual time\n", st.Operations, st.Messages, st.VirtualTime)
	fmt.Fprintf(out, "  latency: update worst %.2fD mean %.2fD | scan worst %.2fD mean %.2fD\n",
		st.WorstUpdateD, st.MeanUpdateD, st.WorstScanD, st.MeanScanD)
	if err := cluster.Check(); err != nil {
		fmt.Fprintf(out, "  consistency: FAILED — %v\n", err)
		return errFailed
	}
	fmt.Fprintf(out, "  consistency: %s ✓\n", consistency(wl.Info))
	return nil
}
