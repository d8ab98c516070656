// Command asobench regenerates the paper's evaluation artifacts: it runs
// the entries of bench.Experiments. Each prints a table whose *shape*
// corresponds to the paper's complexity claims (latencies are measured in
// units of the maximum message delay D).
//
// Usage:
//
//	asobench                 # run everything `-e all` does not skip
//	asobench -e table1       # one experiment (asobench -h lists them)
//	asobench -e latency -json BENCH_latency.json
//	asobench -quick          # smaller parameters
package main

import (
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
	for _, e := range bench.Experiments {
		if cfg.Exp != e.Name && (cfg.Exp != "all" || e.Explicit) {
			continue
		}
		start := time.Now()
		r, err := e.Run(bench.Params{Quick: cfg.Quick, Seed: cfg.Seed})
		if err != nil {
			log.Fatal(err)
		}
		out := r.Render()
		if cfg.JSONPath != "" {
			if err := r.WriteJSON(cfg.JSONPath); err != nil {
				log.Fatalf("%s: %v", e.Name, err)
			}
			out += fmt.Sprintf("points written to %s\n", cfg.JSONPath)
		}
		if cfg.Check && e.Gate != "" {
			if err := r.Check(); err != nil {
				log.Fatal(err)
			}
			out += "check passed: " + e.Gate + "\n"
		}
		fmt.Printf("━━━ %s (%.1fs) ━━━\n%s\n", e.Name, time.Since(start).Seconds(), out)
	}
}
