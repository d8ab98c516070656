// Command asochaos runs a seeded chaos schedule — node crashes (including
// mid-broadcast), transient partitions with heal, per-link loss and delay
// spikes — against a snapshot object while concurrent clients issue
// UPDATE/SCAN operations, then checks the recorded history for
// linearizability (sequential consistency for SSO).
//
// Usage:
//
//	asochaos -seed 42 -duration 5s
//	asochaos -backend tcp -engine byzaso -n 7 -f 2 -json
//	asochaos -engine fastsnap -seed 1337   # any registered engine
//	asochaos -backend sim -trace-dir traces   # JSONL post-mortem on failure
//	asochaos -shards 4 -shard-crash 1         # sharded cluster, per-shard mix
//
// The same seed injects the same fault schedule on every backend; on the
// sim backend the entire run (history included) is byte-identical across
// repetitions, so a failing seed is a complete reproduction recipe. With
// -trace-dir a failing sim run additionally dumps its operation/phase and
// fault-injection events as JSONL — itself a deterministic function of the
// seed. Non-zero exit if any backend's consistency check fails.
package main

import (
	"encoding/json"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"mpsnap/internal/chaos"
	"mpsnap/internal/cluster"
	"mpsnap/internal/engine"
)

func main() {
	cfg, err := parseChaosConfig(os.Args[1:], os.Stderr)
	if err != nil {
		log.Fatal(err)
	}
	if cfg.Cluster.Shards > 0 {
		runClusterMode(cfg)
		return
	}

	var reports []chaos.Report
	failed := false
	for _, be := range cfg.Backends {
		startWall := time.Now()
		res, err := chaos.Run(cfg.Chaos, be)
		if err != nil {
			log.Fatalf("backend %s: %v", be, err)
		}
		rep := chaos.NewReport(be, cfg.Chaos.Engine, res)
		reports = append(reports, rep)
		if !rep.OK {
			failed = true
		}
		if cfg.Dump != "" {
			path := fmt.Sprintf("%s-%s.json", strings.TrimSuffix(cfg.Dump, ".json"), be)
			if err := writeHistory(path, res); err != nil {
				log.Fatal(err)
			}
		}
		if !cfg.JSONOut {
			printReport(rep, cfg, time.Since(startWall))
		}
	}

	if cfg.JSONOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(reports); err != nil {
			log.Fatal(err)
		}
	}
	if failed {
		os.Exit(1)
	}
}

// runClusterMode is the -shards dispatch: the same seed, mix, and
// topology flags, but applied per shard to N independent EQ-ASO clusters
// behind the routing layer, with validated cross-shard GlobalScans in
// place of the single-object linearizability check.
func runClusterMode(cfg chaosConfig) {
	type outcome struct {
		Backend string          `json:"backend"`
		Report  *cluster.Report `json:"report"`
		OK      bool            `json:"ok"`
	}
	var outs []outcome
	failed := false
	for _, be := range cfg.Backends {
		startWall := time.Now()
		rep, err := cluster.Run(cfg.Cluster, be)
		if err != nil {
			log.Fatalf("backend %s: %v", be, err)
		}
		ok := rep.OK()
		outs = append(outs, outcome{Backend: be, Report: rep, OK: ok})
		if !ok {
			failed = true
		}
		if !cfg.JSONOut {
			r := cfg.Cluster
			fmt.Printf("backend=%-4s shards=%d n=%d f=%d seed=%d duration=%s (%d ticks)\n",
				be, r.Shards, r.N, r.F, r.Seed, cfg.Duration, r.Duration)
			fmt.Printf("  %v (%.1fs wall)\n", rep, time.Since(startWall).Seconds())
			for _, b := range rep.Blocked {
				fmt.Printf("  stuck: %s\n", b)
			}
			if ok {
				fmt.Printf("  cuts: consistent across shards (prefix closure, placement, marks) ✓\n")
			} else if len(rep.Violations) > 0 {
				fmt.Printf("  cuts: FAILED — %d violations; first: %s\n", len(rep.Violations), rep.Violations[0])
				fmt.Printf("  reproduce: asochaos -backend %s -shards %d -n %d -f %d -seed %d -duration %s\n",
					be, r.Shards, r.N, r.F, r.Seed, cfg.Duration)
			} else {
				fmt.Printf("  cuts: FAILED — no validated cut completed (availability, not consistency)\n")
			}
		}
	}
	if cfg.JSONOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(outs); err != nil {
			log.Fatal(err)
		}
	}
	if failed {
		os.Exit(1)
	}
}

func printReport(rep chaos.Report, cfg chaosConfig, took time.Duration) {
	c := cfg.Chaos
	fmt.Printf("backend=%-4s engine=%s n=%d f=%d seed=%d duration=%s (%d ticks) schedule=%s\n",
		rep.Backend, rep.Engine, c.N, c.F, c.Seed, cfg.Duration, c.Duration, rep.ScheduleHash)
	if rep.Schedule.Churn != nil {
		var cycles, flaps, lags int
		for _, ev := range rep.Schedule.Events {
			switch ev.Kind {
			case chaos.EvRestart:
				cycles++
			case chaos.EvPartition:
				flaps++
			case chaos.EvSpikeOn:
				lags++
			}
		}
		fmt.Printf("  churn: %d crash→restart cycles, %d membership flaps, %d lagging-link windows — %d events\n",
			cycles, flaps, lags, len(rep.Schedule.Events))
	} else {
		mix := rep.Schedule.Mix
		fmt.Printf("  faults: %d crashes, %d partitions, %d drop windows (p=%.2f), %d spikes (+%gD), %d corrupt windows — %d events\n",
			mix.Crashes, mix.Partitions, mix.DropWindows, mix.DropProb, mix.SpikeWindows, mix.SpikeExtraD,
			mix.CorruptWindows, len(rep.Schedule.Events))
		if mix.Restarts > 0 {
			restarts := 0
			for _, ev := range rep.Schedule.Events {
				if ev.Kind == chaos.EvRestart {
					restarts++
				}
			}
			fmt.Printf("  recovery: %d of %d crash victims restart (WAL replay + rejoin)\n", restarts, mix.Crashes)
		}
	}
	if cfg.ShowSched {
		for _, ev := range rep.Schedule.Events {
			fmt.Printf("    %s\n", ev)
		}
	}
	fmt.Printf("  ops=%d pending=%d", rep.Ops, rep.Pending)
	if rep.Stats != nil {
		fmt.Printf(" msgs=%d dropped=%d held=%d corrupt=%d",
			rep.Stats.MsgsTotal, rep.Stats.MsgsDrop, rep.Stats.MsgsHeld, rep.Stats.MsgsCorrupt)
	} else {
		fmt.Printf(" dropped=%d held=%d corrupt=%d", rep.NetDrops, rep.NetHeld, rep.NetCorrupt)
	}
	if rep.HistoryHash != "" {
		fmt.Printf(" history=%s", rep.HistoryHash)
	}
	fmt.Printf(" (%.1fs wall)\n", took.Seconds())
	for _, b := range rep.Blocked {
		fmt.Printf("  stuck: %s\n", b)
	}
	kind := "linearizable (A1-A4)"
	if in, err := engine.Lookup(rep.Engine); err == nil && in.Sequential {
		kind = "sequentially consistent"
	}
	if len(rep.Violations) == 0 {
		fmt.Printf("  consistency: %s ✓\n", kind)
	} else {
		fmt.Printf("  consistency: FAILED — %d violations; first: %s\n", len(rep.Violations), rep.Violations[0])
	}
	if rep.MonitorStats != nil {
		st := rep.MonitorStats
		if len(rep.MonitorViolations) == 0 {
			fmt.Printf("  monitor: clean — %d scans checked, %d updates, %d skipped, %d evicted\n",
				st.Scans, st.Updates, st.Skipped, st.Evicted)
		} else {
			fmt.Printf("  monitor: FAILED — %d violations; first: %s\n",
				len(rep.MonitorViolations), rep.MonitorViolations[0])
			if rep.MonitorPath != "" {
				fmt.Printf("  monitor dump: %s", rep.MonitorPath)
				if rep.MonitorTracePath != "" {
					fmt.Printf(" (+ trace %s)", rep.MonitorTracePath)
				}
				fmt.Println()
			}
		}
	}
	if !rep.OK {
		churn := ""
		if c.Churn {
			churn = " -churn"
		}
		fmt.Printf("  reproduce: asochaos -backend %s -engine %s%s -n %d -f %d -seed %d -duration %s\n",
			rep.Backend, rep.Engine, churn, c.N, c.F, c.Seed, cfg.Duration)
	}
	if rep.TracePath != "" {
		fmt.Println("  " + traceLine(rep))
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

func writeHistory(path string, res *chaos.Result) error {
	if res.Hist == nil {
		return nil
	}
	fd, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := res.Hist.DumpJSON(fd); err != nil {
		fd.Close()
		return err
	}
	if err := fd.Close(); err != nil {
		return err
	}
	fmt.Printf("  history written to %s (re-check with: asosim -check %s)\n", path, path)
	return nil
}
