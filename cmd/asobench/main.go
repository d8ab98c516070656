// Command asobench regenerates the paper's evaluation artifacts on the
// virtual-time simulator. Each experiment prints a table whose *shape*
// corresponds to the paper's complexity claims (latencies are measured in
// units of the maximum message delay D).
//
// Usage:
//
//	asobench                 # run everything
//	asobench -e table1       # one experiment: table1 sqrtk amortized
//	                         # failurefree byzantine sso lattice
//	asobench -e latency -json BENCH_latency.json
//	asobench -quick          # smaller parameters
package main

import (
	"encoding/json"
	"fmt"
	"log"
	"os"
	"time"

	"mpsnap/internal/bench"
)

func main() {
	cfg, err := parseBenchConfig(os.Args[1:], os.Stderr)
	if err != nil {
		log.Fatal(err)
	}
	seed := cfg.Seed

	type experiment struct {
		name string
		run  func() (string, error)
	}
	var (
		table1Ops = 6
		sqrtKs    = []int{0, 1, 2, 4, 8, 16, 25, 36, 50}
		amortK    = 16
		amortOps  = []int{1, 2, 4, 8, 16, 32}
		ffNs      = []int{4, 8, 16, 32}
		byzFs     = []int{1, 2, 4}
		latticeKs = []int{0, 1, 2, 4, 8, 16}
		table1N   = 16
		table1F   = 7
		table1K   = 4
		ssoN      = 9
		ssoOps    = 6
		tputNs    = []int{8, 16}
		tputCs    = []int{1, 4, 16, 64}
		tputOps   = 2
		latN      = 16
		latOps    = 6
		hpN       = 8
		hpWindow  = 128
		hpWindows = 16
		hpHs      = []int{1024, 4096, 16384, 65536}
		rcN       = 8
		rcWindow  = 128
		rcReps    = 3
		rcHs      = []int{1024, 4096, 16384, 65536}
		clShards  = []int{1, 2, 4, 8}
		clN       = 3
		clF       = 1
		clKeys    = 8
		clScans   = 5
		engN      = 7
		engOps    = 12
		wcEngines = []string{"eqaso", "acr", "fastsnap"}
		wcClients = []int{64, 256, 1024, 4096}
		wcN       = 4
		wcDur     = 2 * time.Second
		wcWarm    = 500 * time.Millisecond
	)
	if cfg.Quick {
		engN, engOps = 5, 8
		table1Ops, table1N, table1F, table1K = 3, 7, 3, 2
		sqrtKs = []int{0, 2, 4, 8}
		amortK, amortOps = 8, []int{1, 2, 4, 8}
		ffNs = []int{4, 8, 16}
		byzFs = []int{1, 2}
		latticeKs = []int{0, 2, 4, 8}
		ssoN, ssoOps = 5, 3
		tputNs, tputCs = []int{8, 16}, []int{1, 16, 64}
		latN, latOps = 8, 3
		hpWindows, hpHs = 8, []int{1024, 4096, 16384}
		rcHs = []int{1024, 4096, 16384}
		clShards, clKeys, clScans = []int{1, 2, 4}, 6, 3
		// One saturated point per engine: 256 clients is in the committed
		// artifact, so every engine is gated against its own floor.
		wcClients = []int{256}
		wcDur, wcWarm = 700*time.Millisecond, 200*time.Millisecond
	}

	experiments := []experiment{
		{"table1", func() (string, error) { return bench.Table1(table1N, table1F, table1K, table1Ops, seed) }},
		{"sqrtk", func() (string, error) { return bench.SqrtK(sqrtKs, 2, seed) }},
		{"amortized", func() (string, error) { return bench.Amortized(amortK, amortOps, seed) }},
		{"failurefree", func() (string, error) { return bench.FailureFree(ffNs, 2, seed) }},
		{"byzantine", func() (string, error) { return bench.Byzantine(byzFs, 3, seed) }},
		{"sso", func() (string, error) { return bench.SSOScan(ssoN, ssoOps, seed) }},
		{"lattice", func() (string, error) { return bench.Lattice(latticeKs, seed) }},
		{"messages", func() (string, error) { return bench.Messages(table1N, table1Ops, seed) }},
		{"latency", func() (string, error) {
			l, err := bench.RunLatency(latN, latOps, seed)
			return emit(cfg, l, err, "")
		}},
		{"throughput", func() (string, error) {
			out, points, err := bench.Throughput(tputNs, tputCs, tputOps, seed)
			if err != nil {
				return "", err
			}
			return withJSON(cfg, out, bench.ThroughputReport{Env: bench.CaptureEnv(), Points: points})
		}},
		{"hotpath", func() (string, error) {
			return emit(cfg, bench.RunHotpath(hpN, hpWindow, hpWindows, hpHs), nil,
				"log-engine allocations per window are flat in H")
		}},
		{"recovery", func() (string, error) {
			return emit(cfg, bench.RunRecovery(rcN, rcWindow, rcReps, rcHs), nil,
				"GC-on recovered residency is flat in H")
		}},
		{"cluster", func() (string, error) {
			c, err := bench.RunCluster(clN, clF, clShards, clKeys, clScans, seed)
			return emit(cfg, c, err, "shards=1 GlobalScan stays within its limit over the svc scan baseline")
		}},
		{"engines", func() (string, error) {
			e, err := bench.RunEngines(engN, engOps, seed)
			return emit(cfg, e, err, "fastsnap contention-free scan p50 is below eqaso's")
		}},
		{"wallclock", func() (string, error) {
			// The baseline is read before the run: -json may name the very
			// file it comes from.
			var baseline *bench.Wallclock
			if cfg.Check {
				var err error
				if baseline, err = bench.LoadWallclock(wallclockBaseline); err != nil {
					return "", fmt.Errorf("load baseline: %w", err)
				}
			}
			w, err := bench.RunWallclock(bench.WallclockConfig{
				Engines: wcEngines, Clients: wcClients, N: wcN,
				Duration: wcDur, Warmup: wcWarm, ScanPct: 10, Seed: seed,
			}, baseline)
			return emit(cfg, w, err, "every (engine, clients) point is above its floor of the committed "+wallclockBaseline)
		}},
		{"codec", func() (string, error) {
			out, report, err := bench.Codec()
			if err != nil {
				return "", err
			}
			return withJSON(cfg, out, report)
		}},
	}

	for _, e := range experiments {
		if cfg.Exp == "all" && (e.name == "codec" || e.name == "wallclock") {
			// codec needs the go toolchain (gob baseline); wallclock runs
			// real TCP meshes for wall-clock minutes. Both run explicitly.
			continue
		}
		if cfg.Exp != "all" && cfg.Exp != e.name {
			continue
		}
		start := time.Now()
		out, err := e.run()
		if err != nil {
			log.Fatalf("%s: %v", e.name, err)
		}
		fmt.Printf("━━━ %s (%.1fs) ━━━\n%s\n", e.name, time.Since(start).Seconds(), out)
	}
}

// wallclockBaseline is the committed artifact the wallclock -check gate
// compares against (relative to the repository root, where make runs).
const wallclockBaseline = "BENCH_wallclock.json"

// report is what every experiment with a BENCH_*.json artifact returns
// (bench.Latency, Hotpath, Recovery, ClusterBench, Engines, Wallclock).
type report interface {
	Render() string
	Check() error
}

// emit is the shared tail of those experiments: render, marshal the
// report as the artifact under -json, enforce its acceptance criterion
// under -check. passed describes the criterion ("" = the experiment has
// none).
func emit(cfg benchConfig, r report, err error, passed string) (string, error) {
	if err != nil {
		return "", err
	}
	out, err := withJSON(cfg, r.Render(), r)
	if err != nil {
		return "", err
	}
	if cfg.Check && passed != "" {
		if err := r.Check(); err != nil {
			return "", err
		}
		out += "check passed: " + passed + "\n"
	}
	return out, nil
}

// withJSON writes v as the -json artifact, when one was asked for, and
// notes it at the end of out.
func withJSON(cfg benchConfig, out string, v any) (string, error) {
	if cfg.JSONPath == "" {
		return out, nil
	}
	blob, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(cfg.JSONPath, append(blob, '\n'), 0o644); err != nil {
		return "", err
	}
	return out + fmt.Sprintf("points written to %s\n", cfg.JSONPath), nil
}
