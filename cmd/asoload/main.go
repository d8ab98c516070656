// Command asoload is the wall-clock load generator: it brings up an
// in-process TCP mesh (the exact transport cmd/asonode deploys, on
// loopback sockets), fronts every node with the svc batching layer, and
// drives it with thousands of concurrent client sessions in a closed or
// open loop, reporting ops/sec and client-visible latency percentiles.
//
// Usage:
//
//	asoload                                    # 4-node eqaso mesh, 64 closed-loop sessions, 2s
//	asoload -engine fastsnap -clients 1024     # saturate the fastsnap challenger
//	asoload -rate 50000 -zipf 1.2              # open loop at 50k ops/s with skewed keys
//	asoload -json run.json                     # also write the machine-readable result
package main

import (
	"encoding/json"
	"fmt"
	"log"
	"os"

	_ "mpsnap/internal/engine/all"
	"mpsnap/internal/loadgen"
)

func main() {
	cfg, err := parseLoadConfig(os.Args[1:], os.Stderr)
	if err != nil {
		log.Fatal(err)
	}
	res, err := loadgen.Run(cfg.Gen)
	if err != nil {
		log.Fatal(err)
	}
	if !cfg.Quiet {
		fmt.Print(render(res))
	}
	if cfg.JSONPath != "" {
		blob, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(cfg.JSONPath, append(blob, '\n'), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("result written to %s\n", cfg.JSONPath)
	}
}

// render formats one run for humans.
func render(r loadgen.Result) string {
	out := fmt.Sprintf("engine=%s n=%d clients=%d: %.0f ops/s (%d ops in %.2fs, %d errors)\n",
		r.Engine, r.N, r.Clients, r.OpsPerSec, r.Ops, r.Seconds, r.Errors)
	out += fmt.Sprintf("  update: n=%-8d p50=%-8.0f p90=%-8.0f p99=%-8.0f max=%.0f µs\n",
		r.Update.Count, r.Update.P50, r.Update.P90, r.Update.P99, r.Update.Max)
	out += fmt.Sprintf("  scan:   n=%-8d p50=%-8.0f p90=%-8.0f p99=%-8.0f max=%.0f µs\n",
		r.Scan.Count, r.Scan.P50, r.Scan.P90, r.Scan.P99, r.Scan.Max)
	amort := func(client, proto int64) float64 {
		if proto == 0 {
			return 0
		}
		return float64(client) / float64(proto)
	}
	out += fmt.Sprintf("  svc: %d updates / %d proto (%.1fx), %d scans / %d proto (%.1fx), max batch %d, window %d (+%d/-%d)\n",
		r.SvcUpdates, r.SvcProtoUpdates, amort(r.SvcUpdates, r.SvcProtoUpdates),
		r.SvcScans, r.SvcProtoScans, amort(r.SvcScans, r.SvcProtoScans),
		r.SvcMaxBatch, r.SvcWindow, r.SvcWindowGrows, r.SvcWindowShr)
	out += fmt.Sprintf("  alloc: %.0f allocs/op, %.0f B/op (whole process, recording window)\n",
		r.AllocsPerOp, r.BytesPerOp)
	return out
}
