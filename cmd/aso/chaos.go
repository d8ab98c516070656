package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"mpsnap/internal/chaos"
	"mpsnap/internal/cluster"
	"mpsnap/internal/rt"
)

// chaosConfig is the parsed `aso chaos` command line: the chaos.Config for
// every selected backend plus command-level options. When Cluster.Shards
// is positive the run dispatches to the sharded cluster runner instead,
// with the same seed, mix, and topology flags applied per shard.
type chaosConfig struct {
	topology
	Chaos     chaos.Config
	Cluster   cluster.RunConfig
	Backends  []string
	Duration  time.Duration
	ShowSched bool
	JSONOut   bool
	Dump      string
}

// parseChaosConfig parses and validates the `aso chaos` command line. Usage
// and flag errors are written to out.
func parseChaosConfig(args []string, out io.Writer) (chaosConfig, error) {
	cfg := chaosConfig{topology: topology{Engine: "eqaso", N: 5, Seed: 1}}
	var backend string
	fs := flag.NewFlagSet("aso chaos", flag.ContinueOnError)
	fs.SetOutput(out)
	cfg.register(fs, flagEngine, flagN, flagF, flagSeed)
	fs.DurationVar(&cfg.Duration, "duration", 5*time.Second, "workload length (wall time on transports; 1 D per 10ms everywhere)")
	fs.StringVar(&backend, "backend", "both", "backend(s): sim|chan|tcp|both (sim+tcp)|all, or a comma list")
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
	if err := cfg.resolve(); err != nil {
		return cfg, err
	}
	cfg.Chaos.Engine, cfg.Chaos.N, cfg.Chaos.F, cfg.Chaos.Seed = cfg.Engine, cfg.N, cfg.F, cfg.Seed
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
		cfg.Cluster.Engine, cfg.Cluster.N, cfg.Cluster.F, cfg.Cluster.Seed = cfg.Engine, cfg.N, cfg.F, cfg.Seed
		cfg.Cluster.Duration = cfg.Chaos.Duration
		cfg.Cluster.Mix = cfg.Chaos.Mix
		cfg.Cluster.ScanRatio = cfg.Chaos.ScanRatio
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

// runChaos runs a seeded chaos schedule — node crashes (including
// mid-broadcast), transient partitions with heal, per-link loss and delay
// spikes — against a snapshot object while concurrent clients issue
// UPDATE/SCAN operations, then checks the recorded history for
// linearizability (sequential consistency for SSO).
//
//	aso chaos -seed 42 -duration 5s
//	aso chaos -backend tcp -engine byzaso -n 7 -f 2 -json
//	aso chaos -engine fastsnap -seed 1337        # any registered engine
//	aso chaos -backend sim -trace-dir traces     # JSONL post-mortem on failure
//	aso chaos -shards 4 -shard-crash 1           # sharded cluster, per-shard mix
//
// The same seed injects the same fault schedule on every backend; on the
// sim backend the entire run (history included) is byte-identical across
// repetitions, so a failing seed is a complete reproduction recipe. With
// -trace-dir a failing sim run additionally dumps its operation/phase and
// fault-injection events as JSONL — itself a deterministic function of the
// seed. The run fails if any backend's consistency check fails.
func runChaos(args []string, out io.Writer) error {
	cfg, err := parseChaosConfig(args, os.Stderr)
	if err != nil {
		return err
	}
	one := chaosOne
	if cfg.Cluster.Shards > 0 {
		one = shardsOne
	}
	var reports []any
	failed := false
	for _, be := range cfg.Backends {
		rep, ok, err := one(cfg, be, out)
		if err != nil {
			return fmt.Errorf("backend %s: %w", be, err)
		}
		reports = append(reports, rep)
		failed = failed || !ok
	}
	if cfg.JSONOut {
		if err := emitJSON(out, reports); err != nil {
			return err
		}
	}
	if failed {
		return errFailed
	}
	return nil
}

// chaosOne runs the single-object schedule on one backend.
func chaosOne(cfg chaosConfig, be string, out io.Writer) (any, bool, error) {
	startWall := time.Now()
	res, err := chaos.Run(cfg.Chaos, be)
	if err != nil {
		return nil, false, err
	}
	rep := chaos.NewReport(be, cfg.Engine, res)
	if cfg.Dump != "" && res.Hist != nil {
		path := fmt.Sprintf("%s-%s.json", strings.TrimSuffix(cfg.Dump, ".json"), be)
		if err := dumpHistory(path, res.Hist.DumpJSON, out); err != nil {
			return nil, false, err
		}
	}
	if !cfg.JSONOut {
		printReport(out, rep, cfg, time.Since(startWall))
	}
	return rep, rep.OK, nil
}

// shardsOne is the -shards dispatch: the same seed, mix, and topology
// flags, but applied per shard to N independent clusters behind the
// routing layer, with validated cross-shard GlobalScans in place of the
// single-object linearizability check.
func shardsOne(cfg chaosConfig, be string, out io.Writer) (any, bool, error) {
	type outcome struct {
		Backend string          `json:"backend"`
		Report  *cluster.Report `json:"report"`
		OK      bool            `json:"ok"`
	}
	startWall := time.Now()
	rep, err := cluster.Run(cfg.Cluster, be)
	if err != nil {
		return nil, false, err
	}
	ok := rep.OK()
	if !cfg.JSONOut {
		r := cfg.Cluster
		fmt.Fprintf(out, "backend=%-4s shards=%d n=%d f=%d seed=%d duration=%s (%d ticks)\n",
			be, r.Shards, r.N, r.F, r.Seed, cfg.Duration, r.Duration)
		fmt.Fprintf(out, "  %v (%.1fs wall)\n", rep, time.Since(startWall).Seconds())
		for _, b := range rep.Blocked {
			fmt.Fprintf(out, "  stuck: %s\n", b)
		}
		if ok {
			fmt.Fprintf(out, "  cuts: consistent across shards (prefix closure, placement, marks) ✓\n")
		} else if len(rep.Violations) > 0 {
			fmt.Fprintf(out, "  cuts: FAILED — %d violations; first: %s\n", len(rep.Violations), rep.Violations[0])
			fmt.Fprintf(out, "  reproduce: aso chaos -backend %s -shards %d -n %d -f %d -seed %d -duration %s\n",
				be, r.Shards, r.N, r.F, r.Seed, cfg.Duration)
		} else {
			fmt.Fprintf(out, "  cuts: FAILED — no validated cut completed (availability, not consistency)\n")
		}
	}
	return outcome{Backend: be, Report: rep, OK: ok}, ok, nil
}

func printReport(out io.Writer, rep chaos.Report, cfg chaosConfig, took time.Duration) {
	c := cfg.Chaos
	fmt.Fprintf(out, "backend=%-4s engine=%s n=%d f=%d seed=%d duration=%s (%d ticks) schedule=%s\n",
		rep.Backend, rep.Engine, c.N, c.F, c.Seed, cfg.Duration, c.Duration, rep.ScheduleHash)
	events := rep.Schedule.Events
	count := func(kind chaos.EventKind) (k int) {
		for _, ev := range events {
			if ev.Kind == kind {
				k++
			}
		}
		return k
	}
	if rep.Schedule.Churn {
		fmt.Fprintf(out, "  churn: %d crash→restart cycles, %d membership flaps, %d lagging-link windows — %d events\n",
			count(chaos.EvRestart), count(chaos.EvPartition), count(chaos.EvSpikeOn), len(events))
	} else {
		mix := rep.Schedule.Mix
		fmt.Fprintf(out, "  faults: %d crashes, %d partitions, %d drop windows (p=%.2f), %d spikes (+%gD), %d corrupt windows — %d events\n",
			mix.Crashes, mix.Partitions, mix.DropWindows, mix.DropProb, mix.SpikeWindows, mix.SpikeExtraD,
			mix.CorruptWindows, len(events))
		if mix.Restarts > 0 {
			fmt.Fprintf(out, "  recovery: %d of %d crash victims restart (WAL replay + rejoin)\n", count(chaos.EvRestart), mix.Crashes)
		}
	}
	if cfg.ShowSched {
		for _, ev := range events {
			fmt.Fprintf(out, "    %s\n", ev)
		}
	}
	fmt.Fprintf(out, "  ops=%d pending=%d", rep.Ops, rep.Pending)
	if rep.Stats != nil {
		fmt.Fprintf(out, " msgs=%d dropped=%d held=%d corrupt=%d",
			rep.Stats.MsgsTotal, rep.Stats.MsgsDrop, rep.Stats.MsgsHeld, rep.Stats.MsgsCorrupt)
	} else {
		fmt.Fprintf(out, " dropped=%d held=%d corrupt=%d", rep.NetDrops, rep.NetHeld, rep.NetCorrupt)
	}
	if rep.HistoryHash != "" {
		fmt.Fprintf(out, " history=%s", rep.HistoryHash)
	}
	fmt.Fprintf(out, " (%.1fs wall)\n", took.Seconds())
	for _, b := range rep.Blocked {
		fmt.Fprintf(out, "  stuck: %s\n", b)
	}
	if len(rep.Violations) == 0 {
		fmt.Fprintf(out, "  consistency: %s ✓\n", consistency(cfg.Info))
	} else {
		fmt.Fprintf(out, "  consistency: FAILED — %d violations; first: %s\n", len(rep.Violations), rep.Violations[0])
	}
	if rep.MonitorStats != nil {
		st := rep.MonitorStats
		if len(rep.MonitorViolations) == 0 {
			fmt.Fprintf(out, "  monitor: clean — %d scans checked, %d updates, %d skipped, %d evicted\n",
				st.Scans, st.Updates, st.Skipped, st.Evicted)
		} else {
			fmt.Fprintf(out, "  monitor: FAILED — %d violations; first: %s\n",
				len(rep.MonitorViolations), rep.MonitorViolations[0])
			if rep.MonitorPath != "" {
				fmt.Fprintf(out, "  monitor dump: %s", rep.MonitorPath)
				if rep.MonitorTracePath != "" {
					fmt.Fprintf(out, " (+ trace %s)", rep.MonitorTracePath)
				}
				fmt.Fprintln(out)
			}
		}
	}
	if !rep.OK {
		churn := ""
		if c.Churn {
			churn = " -churn"
		}
		fmt.Fprintf(out, "  reproduce: aso chaos -backend %s -engine %s%s -n %d -f %d -seed %d -duration %s\n",
			rep.Backend, rep.Engine, churn, c.N, c.F, c.Seed, cfg.Duration)
	}
	if rep.TracePath != "" {
		fmt.Fprintln(out, "  "+traceLine(rep))
	}
}

// traceLine is the one-line pointer from a report to its trace dump: the
// path plus everything needed to regenerate it (seed + schedule digest).
func traceLine(rep chaos.Report) string {
	s := fmt.Sprintf("trace: %s (seed=%d schedule=%s", rep.TracePath, rep.Schedule.Seed, rep.ScheduleHash)
	if rep.TraceDropped > 0 {
		s += fmt.Sprintf(", %d older events evicted", rep.TraceDropped)
	}
	return s + ")"
}
