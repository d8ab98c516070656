package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"mpsnap/internal/bench"
	"mpsnap/internal/loadgen"
)

// loadConfig is the parsed `aso load` command line.
type loadConfig struct {
	Gen      loadgen.Config
	JSONPath string
	Quiet    bool
}

// parseLoadConfig parses and validates the `aso load` command line. Usage
// and flag errors are written to out.
func parseLoadConfig(args []string, out io.Writer) (loadConfig, error) {
	t := topology{Engine: "eqaso", N: 4, Seed: 1}
	var cfg loadConfig
	fs := flag.NewFlagSet("aso load", flag.ContinueOnError)
	fs.SetOutput(out)
	t.register(fs, flagEngine, flagN, flagF, flagSeed)
	fs.IntVar(&cfg.Gen.Clients, "clients", 64, "concurrent client sessions")
	fs.DurationVar(&cfg.Gen.Duration, "duration", 2*time.Second, "recording window")
	fs.DurationVar(&cfg.Gen.Warmup, "warmup", 500*time.Millisecond, "warmup excluded from every reported number")
	fs.IntVar(&cfg.Gen.ScanPct, "scans", 10, "percentage of operations that are scans (0..100)")
	fs.Float64Var(&cfg.Gen.Rate, "rate", 0, "open-loop arrival rate in ops/sec across all sessions (0 = closed loop)")
	fs.IntVar(&cfg.Gen.Payload, "payload", 16, "update payload bytes")
	fs.DurationVar(&cfg.Gen.D, "d", 5*time.Millisecond, "transport delay bound D")
	fs.IntVar(&cfg.Gen.MaxPending, "max-pending", 0, "per-node service queue bound (0 = svc default)")
	fs.StringVar(&cfg.JSONPath, "json", "", "write the machine-readable result to this JSON file")
	fs.BoolVar(&cfg.Quiet, "quiet", false, "suppress the human-readable report")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if len(fs.Args()) != 0 {
		return cfg, fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	if t.N < 2 {
		return cfg, fmt.Errorf("-n %d: need at least 2 nodes", t.N)
	}
	if err := t.resolve(); err != nil {
		return cfg, err
	}
	cfg.Gen.Engine, cfg.Gen.N, cfg.Gen.F, cfg.Gen.Seed = t.Engine, t.N, t.F, t.Seed
	if cfg.Gen.Clients < 1 {
		return cfg, fmt.Errorf("-clients %d: need at least 1 session", cfg.Gen.Clients)
	}
	if cfg.Gen.ScanPct < 0 || cfg.Gen.ScanPct > 100 {
		return cfg, fmt.Errorf("-scans %d: want 0..100", cfg.Gen.ScanPct)
	}
	if cfg.Gen.Rate < 0 {
		return cfg, fmt.Errorf("-rate %g: must be >= 0", cfg.Gen.Rate)
	}
	return cfg, nil
}

// runLoad is the wall-clock load generator: it brings up an in-process TCP
// mesh (the exact transport `aso node` deploys, on loopback sockets),
// fronts every node with the svc batching layer, and drives it with
// thousands of concurrent client sessions in a closed or open loop,
// reporting ops/sec and client-visible latency percentiles.
//
//	aso load                                    # 4-node eqaso mesh, 64 closed-loop sessions, 2s
//	aso load -engine fastsnap -clients 1024     # saturate the fastsnap challenger
//	aso load -rate 50000                        # open loop at 50k ops/s
//	aso load -json run.json                     # also write the report (bench.Report envelope)
func runLoad(args []string, out io.Writer) error {
	cfg, err := parseLoadConfig(args, os.Stderr)
	if err != nil {
		return err
	}
	res, err := loadgen.Run(cfg.Gen)
	if err != nil {
		return err
	}
	r := bench.LoadReport(cfg.Gen, res)
	if !cfg.Quiet {
		fmt.Fprint(out, r.Render())
	}
	if cfg.JSONPath != "" {
		if err := r.WriteJSON(cfg.JSONPath); err != nil {
			return err
		}
		fmt.Fprintf(out, "result written to %s\n", cfg.JSONPath)
	}
	return nil
}
