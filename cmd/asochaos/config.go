package main

import (
	"flag"
	"fmt"
	"io"
	"strings"
	"time"

	"mpsnap/internal/chaos"
	"mpsnap/internal/cluster"
	"mpsnap/internal/engine"
	"mpsnap/internal/rt"
)

// chaosConfig is the parsed asochaos command line: the chaos.Config for
// every selected backend plus command-level options. When Cluster.Shards
// is positive the run dispatches to the sharded cluster runner instead,
// with the same seed, mix, and topology flags applied per shard.
type chaosConfig struct {
	Chaos     chaos.Config
	Cluster   cluster.RunConfig
	Backends  []string
	Duration  time.Duration
	ShowSched bool
	JSONOut   bool
	Dump      string
}

// parseChaosConfig parses and validates the asochaos command line. Usage
// and flag errors are written to out.
func parseChaosConfig(args []string, out io.Writer) (chaosConfig, error) {
	var (
		cfg     chaosConfig
		backend string
	)
	fs := flag.NewFlagSet("asochaos", flag.ContinueOnError)
	fs.SetOutput(out)
	fs.Int64Var(&cfg.Chaos.Seed, "seed", 1, "chaos seed: drives the fault schedule and the workload")
	fs.DurationVar(&cfg.Duration, "duration", 5*time.Second, "workload length (wall time on transports; 1 D per 10ms everywhere)")
	fs.StringVar(&backend, "backend", "both", "backend(s): sim|chan|tcp|both (sim+tcp)|all, or a comma list")
	fs.StringVar(&cfg.Chaos.Engine, "engine", "", "engine under test: "+engine.FlagHelp()+" (default eqaso)")
	fs.IntVar(&cfg.Chaos.N, "n", 5, "number of nodes")
	fs.IntVar(&cfg.Chaos.F, "f", 2, "resilience bound")
	fs.IntVar(&cfg.Chaos.Mix.Crashes, "crashes", 1, "crash events (clamped to f; every other one strikes mid-broadcast)")
	fs.IntVar(&cfg.Chaos.Mix.Partitions, "partitions", 2, "partition->heal episodes")
	fs.IntVar(&cfg.Chaos.Mix.DropWindows, "drops", 2, "per-link message-loss windows")
	fs.Float64Var(&cfg.Chaos.Mix.DropProb, "drop-prob", 0.25, "loss probability inside a drop window")
	fs.IntVar(&cfg.Chaos.Mix.SpikeWindows, "spikes", 2, "per-link delay-spike windows")
	fs.Float64Var(&cfg.Chaos.Mix.SpikeExtraD, "spike-extra", 3, "extra delay inside a spike window, in units of D")
	fs.IntVar(&cfg.Chaos.Mix.CorruptWindows, "corrupts", 0, "per-link wire-corruption windows (requires f > 0; undecodable mutants are dropped, decodable ones delivered only to byzaso)")
	fs.Float64Var(&cfg.Chaos.Mix.CorruptProb, "corrupt-prob", 0.2, "corruption probability inside a corrupt window")
	fs.IntVar(&cfg.Chaos.Mix.Restarts, "restarts", 0, "crash victims that later recover by WAL replay + rejoin (clamped to crashes; eqaso/sso on sim or chan)")
	fs.Float64Var(&cfg.Chaos.Mix.RestartDelayD, "restart-delay", 0, "crash-to-recovery delay in units of D (default 5, min 3)")
	fs.BoolVar(&cfg.Chaos.Churn, "churn", false, "churn mode: rolling crash→restart cycles (durable engines), membership flaps, lagging-node windows, bursty workload; replaces the fault mix and arms the streaming invariant monitor")
	fs.BoolVar(&cfg.Chaos.Monitor, "monitor", false, "arm the streaming invariant monitor outside churn mode (first violation dumps into -trace-dir)")
	var monWindowD float64
	fs.Float64Var(&monWindowD, "monitor-window", 0, "streaming monitor sliding window in units of D (default 100)")
	fs.Float64Var(&cfg.Chaos.ScanRatio, "scan-ratio", 0.5, "fraction of scans in the workload")
	fs.StringVar(&cfg.Chaos.TraceDir, "trace-dir", "", "dump a JSONL observability trace into this directory when the check fails (sim backend)")
	fs.IntVar(&cfg.Chaos.TraceCap, "trace-cap", 0, "trace ring capacity (default 8192)")
	fs.BoolVar(&cfg.Chaos.TraceAlways, "trace-always", false, "dump the trace even when the check passes")
	fs.IntVar(&cfg.Cluster.Shards, "shards", 0, "run this many independent shard clusters behind the routing layer instead of one object (atomic engines only; the mix applies per shard)")
	fs.IntVar(&cfg.Cluster.CrashShard, "shard-crash", -1, "with -shards: crash EVERY member of this shard at 40% of the run, restart from WALs at 55% (sim and chan)")
	fs.IntVar(&cfg.Cluster.PartitionShard, "shard-partition", -1, "with -shards: isolate this whole shard from the rest of the topology during [30%, 60%] of the run")
	fs.BoolVar(&cfg.ShowSched, "schedule", false, "print every fault event before running")
	fs.BoolVar(&cfg.JSONOut, "json", false, "emit one JSON report per backend on stdout")
	fs.StringVar(&cfg.Dump, "dump", "", "write each backend's history JSON to <prefix>-<backend>.json")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	cfg.Chaos.Duration = chaos.TicksOf(cfg.Duration)
	cfg.Chaos.MonitorWindow = rt.Ticks(monWindowD * float64(rt.TicksPerD))
	if cfg.Chaos.Engine == "" {
		cfg.Chaos.Engine = "eqaso"
	}
	if _, err := engine.Lookup(cfg.Chaos.Engine); err != nil {
		return cfg, err
	}
	var err error
	cfg.Backends, err = expandBackends(backend)
	if err != nil {
		return cfg, err
	}
	if cfg.Cluster.Shards > 0 {
		if cfg.Chaos.Mix.CorruptWindows > 0 {
			return cfg, fmt.Errorf("-corrupts is not supported with -shards")
		}
		if cfg.Chaos.Churn || cfg.Chaos.Monitor {
			return cfg, fmt.Errorf("-churn and -monitor are not supported with -shards (the cluster report has no single-object history)")
		}
		if cfg.Chaos.TraceDir != "" {
			return cfg, fmt.Errorf("-trace-dir is not supported with -shards")
		}
		if cfg.Dump != "" {
			return cfg, fmt.Errorf("-dump is not supported with -shards (the cluster report has no single-object history)")
		}
		cfg.Cluster.Seed = cfg.Chaos.Seed
		cfg.Cluster.Duration = cfg.Chaos.Duration
		cfg.Cluster.N = cfg.Chaos.N
		cfg.Cluster.F = cfg.Chaos.F
		cfg.Cluster.Mix = cfg.Chaos.Mix
		cfg.Cluster.ScanRatio = cfg.Chaos.ScanRatio
		cfg.Cluster.Engine = cfg.Chaos.Engine
	} else if cfg.Cluster.CrashShard >= 0 || cfg.Cluster.PartitionShard >= 0 {
		return cfg, fmt.Errorf("-shard-crash and -shard-partition require -shards")
	}
	return cfg, nil
}

func expandBackends(s string) ([]string, error) {
	var out []string
	for _, b := range strings.Split(s, ",") {
		switch strings.TrimSpace(b) {
		case "sim", "chan", "tcp":
			out = append(out, strings.TrimSpace(b))
		case "both":
			out = append(out, "sim", "tcp")
		case "all":
			out = append(out, "sim", "chan", "tcp")
		case "":
		default:
			return nil, fmt.Errorf("unknown backend %q (want sim|chan|tcp|both|all)", b)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no backend selected")
	}
	return out, nil
}
