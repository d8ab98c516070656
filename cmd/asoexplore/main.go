// Command asoexplore runs the bounded-exhaustive schedule explorer (a
// stateless model checker) against a snapshot-object implementation: it
// enumerates every message-delivery order of the first -depth scheduling
// decisions of a canonical two-operation scenario (node 0 updates; after
// completion node 2 scans) and checks linearizability under each schedule.
//
// Usage:
//
//	asoexplore -engine eqaso -depth 6
//	asoexplore -engine fastsnap -depth 6         # any registered engine works
//	asoexplore -engine oneshot-sketch -depth 8   # finds the paper's Sec. III-C gap
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"mpsnap/internal/engine"
	_ "mpsnap/internal/engine/all"
	"mpsnap/internal/explore"
	"mpsnap/internal/harness"
	"mpsnap/internal/history"
	"mpsnap/internal/la"
	"mpsnap/internal/sim"
)

func main() {
	var (
		alg     = flag.String("engine", "eqaso", "object under exploration: any registered engine ("+engine.FlagHelp()+") or oneshot|oneshot-sketch")
		depth   = flag.Int("depth", 6, "scheduling decisions explored exhaustively")
		maxRuns = flag.Int("max-runs", 500000, "execution cap")
	)
	flag.Parse()

	mk, ok := factories()[*alg]
	if !ok {
		// Fall back to the engine registry: any registered engine can be
		// explored (the scenario checks linearizability, so sequentially
		// consistent engines are rejected).
		in, err := engine.Lookup(*alg)
		if err != nil {
			log.Fatalf("unknown algorithm %q (want a registered engine %s, or oneshot|oneshot-sketch)", *alg, engine.FlagHelp())
		}
		if in.Sequential {
			log.Fatalf("engine %q is sequentially consistent; the explorer's scenario checks linearizability", *alg)
		}
		mk = func(w *sim.World, i int) harness.Object {
			nd := in.New(w.Runtime(i))
			w.SetHandler(i, nd)
			return nd
		}
	}
	start := time.Now()
	res, err := explore.Run(explore.Options{Depth: *depth, MaxRuns: *maxRuns}, scenario(mk))
	elapsed := time.Since(start)
	var v *explore.Violation
	if errors.As(err, &v) {
		fmt.Printf("VIOLATION after %d schedules (%.2fs)\n", res.Runs, elapsed.Seconds())
		fmt.Printf("  schedule: %v\n", v.Schedule)
		fmt.Printf("  %v\n", v.Err)
		os.Exit(1)
	}
	if err != nil {
		log.Fatal(err)
	}
	status := "tree exhausted"
	if res.Truncated {
		status = "TRUNCATED by -max-runs"
	}
	fmt.Printf("%s: %d schedules verified at depth %d (%.2fs, %s) — no violations\n",
		*alg, res.Runs, *depth, elapsed.Seconds(), status)
}

func factories() map[string]func(w *sim.World, i int) harness.Object {
	return map[string]func(w *sim.World, i int) harness.Object{
		"oneshot": func(w *sim.World, i int) harness.Object {
			o := la.NewOneShotAtomic(w.Runtime(i))
			w.SetHandler(i, o)
			return o
		},
		"oneshot-sketch": func(w *sim.World, i int) harness.Object {
			o := la.NewOneShot(w.Runtime(i))
			w.SetHandler(i, o)
			return o
		},
	}
}

// scenario is the canonical update-then-scan scenario (see
// internal/explore's tests for the rationale, including the Sleep that
// separates the operations in real time).
func scenario(mk func(w *sim.World, i int) harness.Object) func(s sim.Sequencer) error {
	return func(s sim.Sequencer) error {
		const n, f = 3, 1
		w := sim.New(sim.Config{N: n, F: f, Seed: 1, Sequencer: s})
		objs := make([]harness.Object, n)
		for i := 0; i < n; i++ {
			objs[i] = mk(w, i)
		}
		rec := history.NewRecorder(n)
		var updDone bool
		w.GoNode("u0", 0, func(p *sim.Proc) {
			pend := rec.BeginUpdate(0, "a", w.Now())
			if err := objs[0].Update([]byte("a")); err != nil {
				return
			}
			pend.End(w.Now())
			updDone = true
		})
		w.GoNode("s2", 2, func(p *sim.Proc) {
			if err := p.WaitUntilGlobal("update done", func() bool { return updDone }); err != nil {
				return
			}
			if err := p.Sleep(1); err != nil {
				return
			}
			pend := rec.BeginScan(2, w.Now())
			snap, err := objs[2].Scan()
			if err != nil {
				return
			}
			pend.EndScan(harness.SnapStrings(snap), w.Now())
		})
		if err := w.Run(); err != nil {
			return fmt.Errorf("run: %w", err)
		}
		if rep := rec.History().CheckLinearizable(); !rep.OK {
			return fmt.Errorf("%s", rep.Violations[0])
		}
		return nil
	}
}
