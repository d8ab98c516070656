package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"mpsnap/internal/bench"
)

// benchConfig is the parsed `aso bench` command line.
type benchConfig struct {
	Exp      string
	Quick    bool
	Seed     int64
	JSONPath string
	Check    bool
}

// parseBenchConfig parses and validates the `aso bench` command line. Usage
// and flag errors are written to out. The -e vocabulary and the help text
// are bench.Experiments.
func parseBenchConfig(args []string, out io.Writer) (benchConfig, error) {
	var names, explicit, artifacts, gates []string
	for _, e := range bench.Experiments {
		names = append(names, e.Name)
		if e.Explicit {
			explicit = append(explicit, e.Name)
		}
		if e.Artifact != "" {
			artifacts = append(artifacts, e.Name)
		}
		if e.Gate != "" {
			gates = append(gates, e.Name+": "+e.Gate)
		}
	}
	var cfg benchConfig
	t := topology{Seed: 1}
	fs := flag.NewFlagSet("aso bench", flag.ContinueOnError)
	fs.SetOutput(out)
	t.register(fs, flagSeed)
	fs.StringVar(&cfg.Exp, "e", "all", "experiment: "+strings.Join(names, "|")+
		"|all (all skips "+strings.Join(explicit, ", ")+")")
	fs.BoolVar(&cfg.Quick, "quick", false, "smaller parameters (CI-sized)")
	fs.StringVar(&cfg.JSONPath, "json", "",
		"write the report to this JSON file; needs -e to name one of "+strings.Join(artifacts, ", "))
	fs.BoolVar(&cfg.Check, "check", false,
		"fail when an experiment's acceptance criterion does not hold ("+strings.Join(gates, "; ")+")")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	cfg.Seed = t.Seed
	if cfg.Exp != "all" && !slices.Contains(names, cfg.Exp) {
		return cfg, fmt.Errorf("unknown experiment %q (want all or one of %v)", cfg.Exp, names)
	}
	// One path holds one report: under -e all every experiment would
	// overwrite the last, and a table-only experiment would write nothing.
	if cfg.JSONPath != "" && !slices.Contains(artifacts, cfg.Exp) {
		return cfg, fmt.Errorf("-json needs -e to name one experiment with an artifact (%s), not %q",
			strings.Join(artifacts, ", "), cfg.Exp)
	}
	return cfg, nil
}

// runBench regenerates the paper's evaluation artifacts: it runs the
// entries of bench.Experiments. Each prints a table whose *shape*
// corresponds to the paper's complexity claims (latencies are measured in
// units of the maximum message delay D).
//
//	aso bench                 # run everything `-e all` does not skip
//	aso bench -e table1       # one experiment (aso bench -h lists them)
//	aso bench -e latency -json BENCH_latency.json
//	aso bench -quick          # smaller parameters
func runBench(args []string, out io.Writer) error {
	cfg, err := parseBenchConfig(args, os.Stderr)
	if err != nil {
		return err
	}
	for _, e := range bench.Experiments {
		if cfg.Exp != e.Name && (cfg.Exp != "all" || e.Explicit) {
			continue
		}
		start := time.Now()
		r, err := e.Run(bench.Params{Quick: cfg.Quick, Seed: cfg.Seed})
		if err != nil {
			return err
		}
		text := r.Render()
		if cfg.JSONPath != "" {
			if err := r.WriteJSON(cfg.JSONPath); err != nil {
				return fmt.Errorf("%s: %w", e.Name, err)
			}
			text += fmt.Sprintf("points written to %s\n", cfg.JSONPath)
		}
		if cfg.Check && e.Gate != "" {
			if err := r.Check(); err != nil {
				return err
			}
			text += "check passed: " + e.Gate + "\n"
		}
		fmt.Fprintf(out, "━━━ %s (%.1fs) ━━━\n%s\n", e.Name, time.Since(start).Seconds(), text)
	}
	return nil
}
