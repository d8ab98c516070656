package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"mpsnap/internal/chaos"
	"mpsnap/internal/rt"
)

// chaosConfig is the parsed `aso chaos` command line: the chaos.Config for
// every selected backend plus command-level options.
type chaosConfig struct {
	topology
	Chaos     chaos.Config
	Backends  []string
	Duration  time.Duration
	ShowSched bool
	JSONOut   bool
	Dump      string
	// flags is the parsed command line, which reproduce replays.
	flags *flag.FlagSet
}

// parseChaosConfig parses and validates the `aso chaos` command line. Usage
// and flag errors are written to out.
func parseChaosConfig(args []string, out io.Writer) (chaosConfig, error) {
	cfg := chaosConfig{topology: topology{Engine: "eqaso", N: 5, Seed: 1}}
	var backend string
	fs := flag.NewFlagSet("aso chaos", flag.ContinueOnError)
	fs.SetOutput(out)
	cfg.flags = fs
	c := &cfg.Chaos
	cfg.register(fs, flagEngine, flagN, flagF, flagSeed)
	fs.DurationVar(&cfg.Duration, "duration", 5*time.Second, "workload length (wall time on transports; 1 D per 10ms everywhere)")
	fs.StringVar(&backend, "backend", "both", "backend(s): sim|chan|tcp|both (sim+tcp)|all, or a comma list")
	fs.IntVar(&c.Mix.Crashes, "crashes", 1, "crash events (clamped to f; every other one strikes mid-broadcast)")
	fs.IntVar(&c.Mix.Partitions, "partitions", 2, "partition->heal episodes")
	fs.IntVar(&c.Mix.DropWindows, "drops", 2, "per-link message-loss windows")
	fs.Float64Var(&c.Mix.DropProb, "drop-prob", 0.25, "loss probability inside a drop window")
	fs.IntVar(&c.Mix.SpikeWindows, "spikes", 2, "per-link delay-spike windows")
	fs.Float64Var(&c.Mix.SpikeExtraD, "spike-extra", 3, "extra delay inside a spike window, in units of D")
	fs.IntVar(&c.Mix.CorruptWindows, "corrupts", 0, "per-link wire-corruption windows (requires f > 0; undecodable mutants are dropped, decodable ones delivered only to byzaso)")
	fs.Float64Var(&c.Mix.CorruptProb, "corrupt-prob", 0.2, "corruption probability inside a corrupt window")
	fs.IntVar(&c.Mix.Restarts, "restarts", 0, "crash victims that later recover by WAL replay + rejoin (clamped to crashes; eqaso/sso)")
	fs.Float64Var(&c.Mix.RestartDelayD, "restart-delay", 0, "crash-to-recovery delay in units of D (default 5, min 3)")
	fs.BoolVar(&c.Churn, "churn", false, "churn mode: rolling crash→restart cycles (durable engines), membership flaps, lagging-node windows, bursty workload; replaces the fault mix and arms the streaming invariant monitor")
	fs.BoolVar(&c.Monitor, "monitor", false, "arm the streaming invariant monitor outside churn mode (first violation dumps into -trace-dir)")
	var monWindowD float64
	fs.Float64Var(&monWindowD, "monitor-window", 0, "streaming monitor sliding window in units of D (default 100)")
	fs.Float64Var(&c.ScanRatio, "scan-ratio", 0.5, "fraction of scans in the workload")
	fs.StringVar(&c.TraceDir, "trace-dir", "", "dump a JSONL observability trace into this directory when the check fails (sim backend)")
	fs.IntVar(&c.TraceCap, "trace-cap", 0, "trace ring capacity (default 8192)")
	fs.BoolVar(&c.TraceAlways, "trace-always", false, "dump the trace even when the check passes")
	fs.IntVar(&c.Shards, "shards", 0, "run this many independent shard clusters behind the routing layer instead of one object (atomic engines only; the mix applies per shard)")
	fs.IntVar(&c.ShardCrash, "shard-crash", -1, "with -shards: crash EVERY member of this shard at 40% of the run, restart from WALs at 55%")
	fs.IntVar(&c.ShardPartition, "shard-partition", -1, "with -shards: isolate this whole shard from the rest of the topology during [30%, 60%] of the run")
	fs.BoolVar(&cfg.ShowSched, "schedule", false, "print every fault event before running")
	fs.BoolVar(&cfg.JSONOut, "json", false, "emit one JSON report per backend on stdout")
	fs.StringVar(&cfg.Dump, "dump", "", "write each backend's history JSON to <prefix>-<backend>.json")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	c.Duration = chaos.TicksOf(cfg.Duration)
	c.MonitorWindow = rt.Ticks(monWindowD * float64(rt.TicksPerD))
	if err := cfg.resolve(); err != nil {
		return cfg, err
	}
	c.Engine, c.N, c.F, c.Seed = cfg.Engine, cfg.N, cfg.F, cfg.Seed
	var err error
	cfg.Backends, err = expandBackends(backend)
	if err != nil {
		return cfg, err
	}
	switch {
	case c.Shards == 0 && (c.ShardCrash >= 0 || c.ShardPartition >= 0):
		return cfg, fmt.Errorf("-shard-crash and -shard-partition require -shards")
	case c.Shards > 0 && cfg.Dump != "":
		return cfg, fmt.Errorf("-dump is not supported with -shards (the cluster report has no single-object history)")
	}
	_, err = c.Schedule()
	return cfg, err
}

// reproduce is the command line that replays the run on backend: every
// flag whose value differs from its default.
func (cfg chaosConfig) reproduce(backend string) string {
	line := "aso chaos -backend " + backend
	cfg.flags.VisitAll(func(f *flag.Flag) {
		v := f.Value.String()
		switch {
		case f.Name == "backend" || v == f.DefValue:
		case v == "true" && isBoolFlag(f):
			line += " -" + f.Name
		case isBoolFlag(f):
			line += " -" + f.Name + "=" + v
		default:
			line += " -" + f.Name + " " + v
		}
	})
	return line
}

func isBoolFlag(f *flag.Flag) bool {
	b, ok := f.Value.(interface{ IsBoolFlag() bool })
	return ok && b.IsBoolFlag()
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
// linearizability (sequential consistency for SSO). With -shards the same
// run drives the sharded store instead, and the check is the cut
// validator's on every coordinator's cross-shard cut.
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
	var results []*chaos.Result
	failed := false
	for _, be := range cfg.Backends {
		startWall := time.Now()
		res, err := chaos.Run(cfg.Chaos, be)
		if err != nil {
			return fmt.Errorf("backend %s: %w", be, err)
		}
		if cfg.Dump != "" {
			path := fmt.Sprintf("%s-%s.json", strings.TrimSuffix(cfg.Dump, ".json"), be)
			if err := dumpHistory(path, res.Hist.DumpJSON, out); err != nil {
				return err
			}
		}
		if !cfg.JSONOut {
			printReport(out, res, cfg, time.Since(startWall))
		}
		results = append(results, res)
		failed = failed || !res.OK
	}
	if cfg.JSONOut {
		if err := emitJSON(out, results); err != nil {
			return err
		}
	}
	if failed {
		return errFailed
	}
	return nil
}

func printReport(out io.Writer, rep *chaos.Result, cfg chaosConfig, took time.Duration) {
	c := cfg.Chaos
	shards := ""
	if c.Shards > 0 {
		shards = fmt.Sprintf(" shards=%d", c.Shards)
	}
	fmt.Fprintf(out, "backend=%-4s engine=%s%s n=%d f=%d seed=%d duration=%s (%d ticks) schedule=%s\n",
		rep.Backend, rep.Engine, shards, c.N, c.F, c.Seed, cfg.Duration, c.Duration, rep.ScheduleHash)
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
		mix, per := rep.Schedule.Mix, ""
		if c.Shards > 0 {
			per = " per shard"
		}
		fmt.Fprintf(out, "  faults%s: %d crashes, %d partitions, %d drop windows (p=%.2f), %d spikes (+%gD), %d corrupt windows — %d events\n",
			per, mix.Crashes, mix.Partitions, mix.DropWindows, mix.DropProb, mix.SpikeWindows, mix.SpikeExtraD,
			mix.CorruptWindows, len(events))
		if c.ShardCrash >= 0 || c.ShardPartition >= 0 {
			fmt.Fprintf(out, "  whole shard: crash %d at 40%%, restart at 55%%; partition %d during [30%%, 60%%] (-1: none)\n", c.ShardCrash, c.ShardPartition)
		}
		if k := count(chaos.EvRestart); k > 0 {
			fmt.Fprintf(out, "  recovery: %d restarts (WAL replay + rejoin)\n", k)
		}
	}
	if cfg.ShowSched {
		for _, ev := range events {
			fmt.Fprintf(out, "    %s\n", ev)
		}
	}
	if rep.Cuts != nil {
		fmt.Fprintf(out, "  %v violations=%d blocked=%d", rep.Cuts, len(rep.Violations), len(rep.Blocked))
	} else {
		fmt.Fprintf(out, "  ops=%d pending=%d", rep.Ops, rep.Pending)
	}
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
	check := "consistency"
	if rep.Cuts != nil {
		check = "cuts"
	}
	switch {
	case len(rep.Violations) > 0:
		fmt.Fprintf(out, "  %s: FAILED — %d violations; first: %s\n", check, len(rep.Violations), rep.Violations[0])
	case rep.Cuts == nil:
		fmt.Fprintf(out, "  consistency: %s ✓\n", consistency(cfg.Info))
	case rep.Cuts.OK > 0:
		fmt.Fprintf(out, "  cuts: consistent across shards (prefix closure, placement, marks) ✓\n")
	default:
		fmt.Fprintf(out, "  cuts: FAILED — no validated cut completed (availability, not consistency)\n")
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
		fmt.Fprintf(out, "  reproduce: %s\n", cfg.reproduce(rep.Backend))
	}
	if rep.TracePath != "" {
		fmt.Fprintln(out, "  "+traceLine(rep))
	}
}

// traceLine is the one-line pointer from a report to its trace dump: the
// path plus everything needed to regenerate it (seed + schedule digest).
func traceLine(rep *chaos.Result) string {
	s := fmt.Sprintf("trace: %s (seed=%d schedule=%s", rep.TracePath, rep.Schedule.Seed, rep.ScheduleHash)
	if rep.TraceDropped > 0 {
		s += fmt.Sprintf(", %d older events evicted", rep.TraceDropped)
	}
	return s + ")"
}
