package main

import (
	"flag"
	"fmt"
	"io"
)

// knownExperiments is the -e vocabulary, in run order.
var knownExperiments = []string{
	"table1", "sqrtk", "amortized", "failurefree", "byzantine",
	"sso", "lattice", "messages", "throughput", "codec", "latency",
	"hotpath", "recovery", "cluster", "engines", "wallclock",
}

// benchConfig is the parsed asobench command line.
type benchConfig struct {
	Exp      string
	Quick    bool
	Seed     int64
	JSONPath string
	Check    bool
}

// parseBenchConfig parses and validates the asobench command line. Usage
// and flag errors are written to out.
func parseBenchConfig(args []string, out io.Writer) (benchConfig, error) {
	var cfg benchConfig
	fs := flag.NewFlagSet("asobench", flag.ContinueOnError)
	fs.SetOutput(out)
	fs.StringVar(&cfg.Exp, "e", "all",
		"experiment: table1|sqrtk|amortized|failurefree|byzantine|sso|lattice|messages|throughput|codec|latency|hotpath|recovery|cluster|engines|wallclock|all")
	fs.BoolVar(&cfg.Quick, "quick", false, "smaller parameters (CI-sized)")
	fs.Int64Var(&cfg.Seed, "seed", 1, "simulation seed")
	fs.StringVar(&cfg.JSONPath, "json", "",
		"write the machine-readable points to this JSON file (throughput, codec, latency, hotpath, recovery, cluster, engines, and wallclock experiments)")
	fs.BoolVar(&cfg.Check, "check", false,
		"fail when an experiment's acceptance criterion does not hold (hotpath: flat log-engine allocation growth; recovery: flat GC-on recovered residency; cluster: shards=1 GlobalScan within 1.2× of the svc scan baseline; engines: fastsnap contention-free scan p50 below eqaso's; wallclock: every measured point above its floor of the committed BENCH_wallclock.json)")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if cfg.Exp != "all" {
		ok := false
		for _, name := range knownExperiments {
			if cfg.Exp == name {
				ok = true
				break
			}
		}
		if !ok {
			return cfg, fmt.Errorf("unknown experiment %q (want all or one of %v)", cfg.Exp, knownExperiments)
		}
	}
	return cfg, nil
}
