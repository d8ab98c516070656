// Command asofuzz hammers the snapshot-object implementations with
// randomized configurations — cluster sizes, delay seeds, workload mixes,
// crash schedules — and checks every resulting history against the
// paper's conditions (A1)-(A4) (sequential consistency for SSO). It runs
// forever by default; any violation stops it with a nonzero exit and
// enough information to reproduce deterministically.
//
// Usage:
//
//	asofuzz                    # fuzz all algorithms until interrupted
//	asofuzz -count 100         # a bounded batch (CI)
//	asofuzz -engine eqaso -seed 7 # reproduce one case
//	asofuzz -wire -count 1000  # fuzz the wire codec layer instead
//
// With -wire, each run generates one message per registered codec and
// checks the encode→decode→re-encode round trip for byte equality, then
// feeds mutated frames to the decoder to prove it errors instead of
// panicking — the same properties as internal/wire's fuzz targets, but
// runnable as a long-haul soak without the go test fuzz driver.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"time"

	"mpsnap"
	"mpsnap/internal/engine"
	"mpsnap/internal/wire"
)

func main() {
	var (
		count    = flag.Int("count", 0, "number of runs (0 = until interrupted)")
		alg      = flag.String("engine", "", "restrict to one engine: "+engine.FlagHelp()+", or a registered baseline (default: rotate all)")
		seed     = flag.Int64("seed", 0, "starting seed (default: time-based)")
		wireMode = flag.Bool("wire", false, "fuzz the wire codec round trip instead of the protocols")
	)
	flag.Parse()

	if *wireMode {
		fuzzWire(*count, *seed)
		return
	}

	algs := mpsnap.Algorithms()
	if *alg != "" {
		algs = []mpsnap.Algorithm{mpsnap.Algorithm(*alg)}
	}
	base := *seed
	if base == 0 {
		base = time.Now().UnixNano()
	}
	start := time.Now()
	for run := 0; *count == 0 || run < *count; run++ {
		s := base + int64(run)
		a := algs[run%len(algs)]
		if err := fuzzOne(a, s); err != nil {
			fmt.Fprintf(os.Stderr, "\nVIOLATION after %d runs (%.1fs):\n", run, time.Since(start).Seconds())
			fmt.Fprintf(os.Stderr, "  reproduce: asofuzz -engine %s -seed %d -count 1\n", a, s)
			fmt.Fprintf(os.Stderr, "  %v\n", err)
			os.Exit(1)
		}
		if run%50 == 49 {
			fmt.Printf("%6d runs ok (%.0f runs/s)\n", run+1, float64(run+1)/time.Since(start).Seconds())
		}
	}
	fmt.Printf("done: %d runs, 0 violations (%.1fs)\n", *count, time.Since(start).Seconds())
}

// fuzzWire soaks the codec layer: canonical round trips for generated
// messages of every registered type, then mutated frames that must decode
// to an error, never a panic.
func fuzzWire(count int, seed int64) {
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	codecs := wire.Registered()
	start := time.Now()
	msgs := 0
	for run := 0; count == 0 || run < count; run++ {
		rng := rand.New(rand.NewSource(seed + int64(run)))
		for _, c := range codecs {
			msg := c.Gen(rng)
			if _, err := wire.Roundtrip(msg); err != nil {
				fmt.Fprintf(os.Stderr, "\nVIOLATION: tag %d (%T): %v\n", c.Tag, c.Proto, err)
				fmt.Fprintf(os.Stderr, "  reproduce: asofuzz -wire -seed %d -count 1\n", seed+int64(run))
				os.Exit(1)
			}
			frame, err := wire.MarshalFrame(msg, 0)
			if err != nil {
				fmt.Fprintf(os.Stderr, "\nVIOLATION: tag %d (%T): frame: %v\n", c.Tag, c.Proto, err)
				os.Exit(1)
			}
			// Mutate: a bit flip, a truncation, or garbage — the decoder
			// must return an error or a valid message, never panic.
			switch rng.Intn(3) {
			case 0:
				frame[rng.Intn(len(frame))] ^= 1 << uint(rng.Intn(8))
			case 1:
				frame = frame[:rng.Intn(len(frame))]
			case 2:
				rng.Read(frame)
			}
			_, _ = wire.UnmarshalFrame(frame, 0)
			msgs++
		}
		if run%500 == 499 {
			fmt.Printf("%6d runs ok, %d messages (%.0f msgs/s)\n",
				run+1, msgs, float64(msgs)/time.Since(start).Seconds())
		}
	}
	fmt.Printf("done: %d wire runs over %d codecs, %d messages, 0 violations (%.1fs)\n",
		count, len(codecs), msgs, time.Since(start).Seconds())
}

// fuzzOne executes one randomized checked run.
func fuzzOne(alg mpsnap.Algorithm, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	n := 3 + rng.Intn(6)
	f := (n - 1) / 2
	if alg.RequiresNGreaterThan3F() {
		n = 4 + rng.Intn(6)
		f = (n - 1) / 3
	}
	if f == 0 {
		f = 1
		if n <= 2 {
			n = 3
		}
		if alg.RequiresNGreaterThan3F() && n <= 3 {
			n = 4
		}
	}
	cfg := mpsnap.Config{N: n, F: f, Algorithm: alg, Seed: seed}
	if rng.Intn(3) == 0 {
		cfg.Delay = mpsnap.DelayConstant
	}
	crashes := rng.Intn(f + 1)
	for v := 0; v < crashes; v++ {
		cfg.Crashes = append(cfg.Crashes, mpsnap.CrashSpec{
			Node: v,
			At:   mpsnap.Ticks(rng.Int63n(int64(30 * mpsnap.D))),
		})
	}
	cluster, err := mpsnap.NewSimCluster(cfg)
	if err != nil {
		return fmt.Errorf("config n=%d f=%d: %w", n, f, err)
	}
	opsPerNode := 1 + rng.Intn(5)
	scanRatio := rng.Float64()
	for i := 0; i < n; i++ {
		i := i
		cluster.Client(i, func(c *mpsnap.Client) {
			rng := rand.New(rand.NewSource(seed*2654435761 + int64(i)))
			for k := 1; k <= opsPerNode; k++ {
				var err error
				if rng.Float64() < scanRatio {
					_, err = c.Scan()
				} else {
					err = c.Update([]byte(fmt.Sprintf("v%d-%d", i, k)))
				}
				if err != nil {
					return // crashed node
				}
				_ = c.Sleep(mpsnap.Ticks(rng.Int63n(int64(4 * mpsnap.D))))
			}
		})
	}
	if err := cluster.Run(); err != nil {
		return fmt.Errorf("n=%d f=%d crashes=%d ops=%d: run: %w", n, f, crashes, opsPerNode, err)
	}
	if err := cluster.Check(); err != nil {
		return fmt.Errorf("n=%d f=%d crashes=%d ops=%d: %w", n, f, crashes, opsPerNode, err)
	}
	return nil
}
