package main

import (
	"flag"
	"fmt"
	"io"
	"time"

	"mpsnap/internal/loadgen"
)

// loadConfig is the parsed asoload command line.
type loadConfig struct {
	Gen      loadgen.Config
	JSONPath string
	Quiet    bool
}

// parseLoadConfig parses and validates the asoload command line. Usage
// and flag errors are written to out.
func parseLoadConfig(args []string, out io.Writer) (loadConfig, error) {
	var cfg loadConfig
	fs := flag.NewFlagSet("asoload", flag.ContinueOnError)
	fs.SetOutput(out)
	fs.StringVar(&cfg.Gen.Engine, "engine", "eqaso", "engine to drive (any registered atomic or sequential engine)")
	fs.IntVar(&cfg.Gen.N, "n", 4, "mesh size (nodes)")
	fs.IntVar(&cfg.Gen.F, "f", 0, "resilience bound (0 = derive from n)")
	fs.IntVar(&cfg.Gen.Clients, "clients", 64, "concurrent client sessions")
	fs.DurationVar(&cfg.Gen.Duration, "duration", 2*time.Second, "recording window")
	fs.DurationVar(&cfg.Gen.Warmup, "warmup", 500*time.Millisecond, "warmup excluded from every reported number")
	fs.IntVar(&cfg.Gen.ScanPct, "scans", 10, "percentage of operations that are scans (0..100)")
	fs.IntVar(&cfg.Gen.Keys, "keys", 1024, "virtual key-space size (keys route to node key mod n)")
	fs.Float64Var(&cfg.Gen.ZipfS, "zipf", 0, "Zipf skew exponent for key choice (>1 skews; 0 = uniform)")
	fs.Float64Var(&cfg.Gen.Rate, "rate", 0, "open-loop arrival rate in ops/sec across all sessions (0 = closed loop)")
	fs.IntVar(&cfg.Gen.Payload, "payload", 16, "update payload bytes")
	fs.Int64Var(&cfg.Gen.Seed, "seed", 1, "workload seed")
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
	if cfg.Gen.N < 2 {
		return cfg, fmt.Errorf("-n %d: need at least 2 nodes", cfg.Gen.N)
	}
	if cfg.Gen.Clients < 1 {
		return cfg, fmt.Errorf("-clients %d: need at least 1 session", cfg.Gen.Clients)
	}
	if cfg.Gen.ScanPct < 0 || cfg.Gen.ScanPct > 100 {
		return cfg, fmt.Errorf("-scans %d: want 0..100", cfg.Gen.ScanPct)
	}
	if cfg.Gen.Keys < 1 {
		return cfg, fmt.Errorf("-keys %d: need at least 1 key", cfg.Gen.Keys)
	}
	if cfg.Gen.ZipfS != 0 && cfg.Gen.ZipfS <= 1 {
		return cfg, fmt.Errorf("-zipf %g: Zipf exponent must be > 1 (or 0 for uniform)", cfg.Gen.ZipfS)
	}
	if cfg.Gen.Rate < 0 {
		return cfg, fmt.Errorf("-rate %g: must be >= 0", cfg.Gen.Rate)
	}
	if f := (cfg.Gen.N - 1) / 2; cfg.Gen.F > f {
		return cfg, fmt.Errorf("-f %d: crash resilience requires f <= (n-1)/2 = %d", cfg.Gen.F, f)
	}
	return cfg, nil
}
