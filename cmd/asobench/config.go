package main

import (
	"flag"
	"fmt"
	"io"
	"slices"
	"strings"

	"mpsnap/internal/bench"
)

// benchConfig is the parsed asobench command line.
type benchConfig struct {
	Exp      string
	Quick    bool
	Seed     int64
	JSONPath string
	Check    bool
}

// parseBenchConfig parses and validates the asobench command line. Usage
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
	fs := flag.NewFlagSet("asobench", flag.ContinueOnError)
	fs.SetOutput(out)
	fs.StringVar(&cfg.Exp, "e", "all", "experiment: "+strings.Join(names, "|")+
		"|all (all skips "+strings.Join(explicit, ", ")+")")
	fs.BoolVar(&cfg.Quick, "quick", false, "smaller parameters (CI-sized)")
	fs.Int64Var(&cfg.Seed, "seed", 1, "simulation seed")
	fs.StringVar(&cfg.JSONPath, "json", "",
		"write the report to this JSON file; needs -e to name one of "+strings.Join(artifacts, ", "))
	fs.BoolVar(&cfg.Check, "check", false,
		"fail when an experiment's acceptance criterion does not hold ("+strings.Join(gates, "; ")+")")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
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
