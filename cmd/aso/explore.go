package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"mpsnap/internal/engine"
	"mpsnap/internal/explore"
	"mpsnap/internal/harness"
	"mpsnap/internal/la"
	"mpsnap/internal/rt"
	"mpsnap/internal/sim"
)

// oneShots are the explorable objects outside the engine registry: the
// paper's Section III-C one-shot sketch and its atomic completion.
var oneShots = map[string]func(r rt.Runtime) engine.Engine{
	"oneshot":        func(r rt.Runtime) engine.Engine { return la.NewOneShotAtomic(r) },
	"oneshot-sketch": func(r rt.Runtime) engine.Engine { return la.NewOneShot(r) },
}

// runExplore runs the bounded-exhaustive schedule explorer (a stateless
// model checker) against a snapshot-object implementation: it enumerates
// every message-delivery order of the first -depth scheduling decisions of
// explore.UpdateThenScan (node 0 updates; after completion node 2 scans)
// and checks linearizability under each schedule.
//
//	aso explore -engine eqaso -depth 6
//	aso explore -engine fastsnap -depth 6         # any registered engine works
//	aso explore -engine oneshot-sketch -depth 8   # finds the paper's Sec. III-C gap
func runExplore(args []string, out io.Writer) error {
	t := topology{Engine: "eqaso", N: 3}
	fs := flag.NewFlagSet("aso explore", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	t.register(fs, flagEngine)
	depth := fs.Int("depth", 6, "scheduling decisions explored exhaustively")
	maxRuns := fs.Int("max-runs", 500000, "execution cap")
	if err := fs.Parse(args); err != nil {
		return err
	}
	mk, ok := oneShots[t.Engine]
	if !ok {
		// Any registered engine can be explored; the scenario checks
		// linearizability, so sequentially consistent engines are rejected.
		if err := t.resolve(); err != nil {
			return fmt.Errorf("%w (or oneshot|oneshot-sketch)", err)
		}
		if t.Info.Sequential {
			return fmt.Errorf("engine %q is sequentially consistent; the explorer's scenario checks linearizability", t.Engine)
		}
		mk = t.Info.New
	}
	start := time.Now()
	res, err := explore.Run(explore.Options{Depth: *depth, MaxRuns: *maxRuns},
		explore.UpdateThenScan(func(w *sim.World, i int) harness.Object {
			o := mk(w.Runtime(i))
			w.SetHandler(i, o)
			return o
		}))
	elapsed := time.Since(start)
	var v *explore.Violation
	if errors.As(err, &v) {
		fmt.Fprintf(out, "VIOLATION after %d schedules (%.2fs)\n", res.Runs, elapsed.Seconds())
		fmt.Fprintf(out, "  schedule: %v\n", v.Schedule)
		fmt.Fprintf(out, "  %v\n", v.Err)
		return errFailed
	}
	if err != nil {
		return err
	}
	status := "tree exhausted"
	if res.Truncated {
		status = "TRUNCATED by -max-runs"
	}
	fmt.Fprintf(out, "%s: %d schedules verified at depth %d (%.2fs, %s) — no violations\n",
		t.Engine, res.Runs, *depth, elapsed.Seconds(), status)
	return nil
}
