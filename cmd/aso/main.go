// Command aso is the repository's one binary: every runtime surface is a
// subcommand, and the subcommands are the rows of the table `commands`.
//
//	aso node -id 0 -addrs :7000,:7001,:7002   # one TCP node with a REPL
//	aso chaos -seed 42 -duration 5s           # seeded chaos run, checked
//	aso bench -e table1                       # the paper's experiments
//	aso <subcommand> -h                       # that subcommand's flags
//
// The subcommands share one topology flag set (-engine, -n, -f, -seed: see
// topology), one history dump/re-check helper and one JSON emitter.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"mpsnap/internal/engine"
	_ "mpsnap/internal/engine/all"
	"mpsnap/internal/history"
)

// command is one subcommand: usage text, dispatch and the README/Makefile
// cross-checks (TestCommandTable) all read this table.
type command struct {
	Name     string
	Synopsis string
	Run      func(args []string, out io.Writer) error
}

var commands = []command{
	{"node", "run one snapshot-object node over TCP with a stdin REPL", runNode},
	{"chaos", "seeded fault schedule against a checked workload on sim/chan/tcp", runChaos},
	{"sim", "one simulated workload with its checked history (-check re-verifies a dump)", runSim},
	{"fuzz", "randomized conformance fuzzing of every engine on the simulator", runFuzz},
	{"explore", "bounded-exhaustive exploration of message-delivery orders", runExplore},
	{"bench", "regenerate the paper's evaluation tables and BENCH_*.json artifacts", runBench},
	{"load", "wall-clock load generator over an in-process TCP loopback mesh", runLoad},
}

func usage(w io.Writer) {
	fmt.Fprintln(w, "usage: aso <subcommand> [flags]   (aso <subcommand> -h lists the flags)")
	for _, c := range commands {
		fmt.Fprintf(w, "  %-8s %s\n", c.Name, c.Synopsis)
	}
}

func main() {
	if len(os.Args) >= 2 {
		for _, c := range commands {
			if c.Name != os.Args[1] {
				continue
			}
			if err := c.Run(os.Args[2:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
				fmt.Fprintf(os.Stderr, "aso %s: %v\n", c.Name, err)
				os.Exit(1)
			}
			return
		}
		fmt.Fprintf(os.Stderr, "aso: unknown subcommand %q\n", os.Args[1])
	}
	usage(os.Stderr)
	os.Exit(2)
}

// errFailed ends a run whose report, already printed, shows a failed check.
var errFailed = errors.New("check failed")

// topology is the one -engine/-n/-f/-seed flag set. A subcommand registers
// the subset it accepts, with the values already in the struct as defaults,
// and resolves it once after parsing.
type topology struct {
	Engine string
	N, F   int
	Seed   int64
	// Info is the resolved registry entry of Engine.
	Info engine.Info
}

// The topology flags, registered by register and nowhere else.
const flagEngine, flagN, flagF, flagSeed = "engine", "n", "f", "seed"

func (t *topology) register(fs *flag.FlagSet, names ...string) {
	for _, name := range names {
		switch name {
		case flagEngine:
			fs.StringVar(&t.Engine, name, t.Engine, "engine: "+engine.FlagHelp()+", or a registered baseline")
		case flagN:
			fs.IntVar(&t.N, name, t.N, "number of nodes")
		case flagF:
			fs.IntVar(&t.F, name, 0, "resilience bound (0 = the maximum the engine's fault model allows: (n-1)/2, Byzantine (n-1)/3)")
		case flagSeed:
			fs.Int64Var(&t.Seed, name, t.Seed, "seed: drives every random choice of the run")
		}
	}
}

// resolve looks the engine up and checks the topology against its fault
// model; F == 0 becomes the most faults that model allows among N nodes.
func (t *topology) resolve() error {
	in, err := engine.Lookup(t.Engine)
	if err != nil {
		return err
	}
	t.Info = in
	if t.F == 0 {
		t.F = in.MaxF(t.N)
	}
	return in.Validate(t.N, t.F)
}

// consistency names the check an engine's histories are held to.
func consistency(in engine.Info) string {
	if in.Sequential {
		return "sequentially consistent"
	}
	return "linearizable (A1-A4)"
}

// dumpHistory writes a recorded history as JSON to path and says how to
// re-check it.
func dumpHistory(path string, dump func(io.Writer) error, out io.Writer) error {
	var buf bytes.Buffer
	if err := dump(&buf); err != nil {
		return err
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(out, "history written to %s (re-check with: aso sim -check %s)\n", path, path)
	return nil
}

// checkHistory loads a history JSON file and reports both consistency
// verdicts (useful for histories recorded from real deployments).
func checkHistory(path string, gantt bool, out io.Writer) error {
	fd, err := os.Open(path)
	if err != nil {
		return err
	}
	defer fd.Close()
	h, err := history.LoadJSON(fd)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s: %d nodes, %d operations\n", path, h.N, len(h.Ops))
	if gantt {
		fmt.Fprintln(out, history.RenderGantt(h, 110))
	}
	verdict := func(rep *history.Report) string {
		if rep.OK {
			return "✓"
		}
		return fmt.Sprintf("✗ (%d violations; first: %s)", len(rep.Violations), rep.Violations[0])
	}
	lin, sc := h.CheckLinearizable(), h.CheckSequentiallyConsistent()
	fmt.Fprintf(out, "  linearizable (A1-A4):     %s\n", verdict(lin))
	fmt.Fprintf(out, "  sequentially consistent:  %s\n", verdict(sc))
	if !lin.OK && !sc.OK {
		return errFailed
	}
	return nil
}

// emitJSON is the one machine-readable output path to a stream.
func emitJSON(out io.Writer, v any) error {
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
