package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"time"

	"mpsnap"
	"mpsnap/internal/engine"
)

// runFuzz hammers the snapshot-object implementations with randomized
// configurations — cluster sizes, delay seeds, workload mixes, crash
// schedules — and checks every resulting history against the paper's
// conditions (A1)-(A4) (sequential consistency for SSO). It runs forever
// by default; any violation stops it with a nonzero exit and enough
// information to reproduce deterministically.
//
//	aso fuzz                       # fuzz all engines until interrupted
//	aso fuzz -count 100            # a bounded batch (CI)
//	aso fuzz -engine eqaso -seed 7 # reproduce one case
func runFuzz(args []string, out io.Writer) error {
	var t topology // no -engine: rotate every registered engine; no -seed: time-based
	fs := flag.NewFlagSet("aso fuzz", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	t.register(fs, flagEngine, flagSeed)
	count := fs.Int("count", 0, "number of runs (0 = until interrupted)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	engines := engine.Names()
	if t.Engine != "" {
		engines = []string{t.Engine}
	}
	if t.Seed == 0 {
		t.Seed = time.Now().UnixNano()
	}
	start := time.Now()
	for run := 0; *count == 0 || run < *count; run++ {
		name, seed := engines[run%len(engines)], t.Seed+int64(run)
		if err := fuzzOne(name, seed); err != nil {
			fmt.Fprintf(os.Stderr, "\nVIOLATION after %d runs (%.1fs):\n", run, time.Since(start).Seconds())
			fmt.Fprintf(os.Stderr, "  reproduce: aso fuzz -engine %s -seed %d -count 1\n", name, seed)
			return err
		}
		if run%50 == 49 {
			fmt.Fprintf(out, "%6d runs ok (%.0f runs/s)\n", run+1, float64(run+1)/time.Since(start).Seconds())
		}
	}
	fmt.Fprintf(out, "done: %d runs, 0 violations (%.1fs)\n", *count, time.Since(start).Seconds())
	return nil
}

// fuzzOne executes one randomized checked run: 3..8 nodes (4..9 under a
// Byzantine fault model) with the most faults the model allows.
func fuzzOne(name string, seed int64) error {
	in, err := engine.Lookup(name)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(seed))
	wl := workload{topology: topology{Engine: name, N: 3 + rng.Intn(6), Seed: seed},
		Think: 4 * mpsnap.D, ClientSeed: seed * 2654435761}
	if in.Byzantine {
		wl.N = 4 + rng.Intn(6)
	}
	if err := wl.resolve(); err != nil {
		return err
	}
	wl.Constant = rng.Intn(3) == 0
	wl.Crashes = crashSchedule(rng, rng.Intn(wl.F+1), 30*mpsnap.D)
	wl.Ops = 1 + rng.Intn(5)
	wl.ScanRatio = rng.Float64()
	cluster, err := wl.cluster()
	if err == nil {
		if err = cluster.Run(); err != nil {
			err = fmt.Errorf("run: %w", err)
		}
	}
	if err == nil {
		err = cluster.Check()
	}
	if err != nil {
		return fmt.Errorf("n=%d f=%d crashes=%d ops=%d: %w", wl.N, wl.F, len(wl.Crashes), wl.Ops, err)
	}
	return nil
}
