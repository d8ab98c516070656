package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"mpsnap/internal/explore"
)

// runExplore runs the bounded-exhaustive schedule explorer (a stateless
// model checker) on every row of explore.Scenarios crossed with every
// object of explore.Objects(), or with the one -engine names: each cell
// checks every delivery order of the row's first -depth scheduling
// decisions (0 = the row's depth). A cell the object's fault model
// rejects is reported, not run.
//
//	aso explore                                   # the whole grid
//	aso explore -engine fastsnap                  # one object, every row
//	aso explore -engine oneshot-sketch            # finds the paper's Sec. III-C gap
func runExplore(args []string, out io.Writer) error {
	var t topology
	fs := flag.NewFlagSet("aso explore", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	t.register(fs, flagEngine)
	depth := fs.Int("depth", 0, "scheduling decisions explored exhaustively (0 = each scenario's own depth)")
	maxRuns := fs.Int("max-runs", 500000, "execution cap per cell")
	if err := fs.Parse(args); err != nil {
		return err
	}
	objects := explore.Objects()
	if t.Engine != "" {
		if _, err := explore.Lookup(t.Engine); err != nil {
			return err
		}
		objects = []string{t.Engine}
	}
	failed := false
	for _, sc := range explore.Scenarios {
		opts := explore.Options{Depth: *depth, MaxRuns: *maxRuns}
		if opts.Depth == 0 {
			opts.Depth = sc.Depth
		}
		for _, obj := range objects {
			start := time.Now()
			res, err := explore.Explore(sc, obj, opts)
			elapsed := time.Since(start).Seconds()
			var v *explore.Violation
			switch {
			case errors.As(err, &v):
				failed = true
				fmt.Fprintf(out, "%s/%s: VIOLATION after %d schedules (%.2fs)\n  schedule: %v\n  %v\n",
					sc.Name, obj, res.Runs, elapsed, v.Schedule, v.Err)
			case err != nil:
				fmt.Fprintf(out, "%s/%s: not run — %v\n", sc.Name, obj, err)
			default:
				status := "tree exhausted"
				if res.Truncated {
					status = "TRUNCATED by -max-runs"
				}
				fmt.Fprintf(out, "%s/%s: %d schedules verified at depth %d (%.2fs, %s) — no violations\n",
					sc.Name, obj, res.Runs, opts.Depth, elapsed, status)
			}
		}
	}
	if failed {
		return errFailed
	}
	return nil
}
