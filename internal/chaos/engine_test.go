package chaos

import (
	"testing"

	"mpsnap/internal/rt"
)

// engineSeeds is the chaos matrix for the challenger engines: four seeds,
// each generating a distinct crash/partition/drop/spike schedule.
var engineSeeds = []int64{42, 1337, 90210, 4242}

// TestChallengerEnginesUnderChaosSim runs acr and fastsnap through the
// full default fault mix (crashes, partitions, drop and spike windows) on
// the deterministic sim backend across the seed matrix, checking
// linearizability (A1)-(A4) on every history. This is the satellite
// acceptance gate: the new engines must survive the same chaos diet as
// EQ-ASO.
func TestChallengerEnginesUnderChaosSim(t *testing.T) {
	for _, eng := range []string{"acr", "fastsnap"} {
		for _, seed := range engineSeeds {
			eng, seed := eng, seed
			t.Run(eng+"/seed="+itoa(seed), func(t *testing.T) {
				t.Parallel()
				res, err := Run(Config{
					N: 5, F: 2, Engine: eng, Seed: seed,
					Duration: 60 * rt.TicksPerD, Mix: defaultMix(),
				}, "sim")
				if err != nil {
					t.Fatal(err)
				}
				if !res.Check.OK {
					t.Fatalf("%s seed %d: not linearizable: %v", eng, seed, res.Check.Violations)
				}
				if len(res.Hist.Ops) == 0 {
					t.Fatalf("%s seed %d: no operations completed", eng, seed)
				}
			})
		}
	}
}

// TestChallengerEnginesUnderChaosChan exercises the same engines on the
// real-goroutine chan transport (run with -race in CI); a seed subset
// keeps the wall-clock cost down, and -short skips it entirely.
func TestChallengerEnginesUnderChaosChan(t *testing.T) {
	if testing.Short() {
		t.Skip("chan backend runs in wall-clock time")
	}
	for _, eng := range []string{"acr", "fastsnap"} {
		for _, seed := range engineSeeds[:2] {
			eng, seed := eng, seed
			t.Run(eng+"/seed="+itoa(seed), func(t *testing.T) {
				res, err := Run(Config{
					N: 5, F: 2, Engine: eng, Seed: seed,
					Duration: 30 * rt.TicksPerD, Mix: defaultMix(),
				}, "chan")
				if err != nil {
					t.Fatal(err)
				}
				if !res.Check.OK {
					t.Fatalf("%s seed %d: not linearizable: %v", eng, seed, res.Check.Violations)
				}
			})
		}
	}
}

func itoa(v int64) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
