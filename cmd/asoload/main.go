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
//	asoload -json run.json                     # also write the report (bench.Report envelope)
package main

import (
	"fmt"
	"log"
	"os"

	"mpsnap/internal/bench"
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
	r := bench.LoadReport(cfg.Gen, res)
	if !cfg.Quiet {
		fmt.Print(r.Render())
	}
	if cfg.JSONPath != "" {
		if err := r.WriteJSON(cfg.JSONPath); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("result written to %s\n", cfg.JSONPath)
	}
}
