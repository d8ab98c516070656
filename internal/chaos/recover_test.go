package chaos

import (
	"bytes"
	"strings"
	"testing"

	"mpsnap/internal/history"
	"mpsnap/internal/rt"
)

// restartMix is the standard crash-recovery diet: two crash victims both
// come back, with the usual partition/loss/spike background noise.
func restartMix() Mix {
	m := DefaultMix()
	m.Crashes = 2
	m.Restarts = 2
	m.Partitions = 1
	m.DropWindows = 1
	m.SpikeWindows = 1
	return m
}

// requireRecovery asserts the run actually exercised crash-recovery: the
// schedule fired restart events, and at least one restarted incarnation
// (client id 1, values "v<node>.1-<seq>") completed an update afterwards.
func requireRecovery(t *testing.T, res *Result) {
	t.Helper()
	restarts := 0
	for _, ev := range res.Schedule.Events {
		if ev.Kind == EvRestart {
			restarts++
		}
	}
	if restarts == 0 {
		t.Fatal("schedule contains no restart events")
	}
	recovered := 0
	for _, op := range res.Hist.Ops {
		if op.Type == history.Update && op.Resp >= 0 && strings.Contains(op.Arg, ".1-") {
			recovered++
		}
	}
	if recovered == 0 {
		t.Fatal("no restarted incarnation completed an update")
	}
	t.Logf("%d restarts, %d post-recovery updates, %d ops total", restarts, recovered, len(res.Hist.Ops))
}

// TestRestartRecoverySim: crashed nodes replay their WAL, rejoin via the
// checkpoint-delta path, and resume the workload — and the complete
// history (pre-crash, concurrent, and post-recovery operations) still
// passes the consistency checker, across algorithms and seeds.
func TestRestartRecoverySim(t *testing.T) {
	seeds := []int64{1, 2, 3, 4}
	if !testing.Short() {
		seeds = append(seeds, 5, 6)
	}
	for _, alg := range []string{"eqaso", "sso"} {
		for _, seed := range seeds {
			res, err := Run(Config{
				N: 5, F: 2, Engine: alg, Seed: seed,
				Duration: 60 * rt.TicksPerD, Mix: restartMix(),
			}, "sim")
			if err != nil {
				t.Fatalf("%s seed %d: %v", alg, seed, err)
			}
			if !res.Check.OK {
				t.Fatalf("%s seed %d: check failed: %v", alg, seed, res.Check.Violations)
			}
			requireRecovery(t, res)
		}
	}
}

// TestRestartDeterminism: restart schedules and recovery replay are as
// deterministic as everything else on the sim backend — same seed, byte-
// identical history. (Restart RNG draws are appended after all other
// fault draws precisely so enabling them cannot perturb the rest.)
func TestRestartDeterminism(t *testing.T) {
	cfg := Config{N: 5, F: 2, Engine: "eqaso", Seed: 9, Duration: 60 * rt.TicksPerD, Mix: restartMix()}
	run := func() []byte {
		res, err := Run(cfg, "sim")
		if err != nil {
			t.Fatal(err)
		}
		if !res.Check.OK {
			t.Fatalf("check failed: %v", res.Check.Violations)
		}
		var buf bytes.Buffer
		if err := res.Hist.DumpJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if b1, b2 := run(), run(); !bytes.Equal(b1, b2) {
		t.Fatalf("same seed produced different histories (%d vs %d bytes)", len(b1), len(b2))
	}
}

// TestRestartRecoveryChan: the same crash-recovery flow on the real
// channel transport — the WAL replay races real goroutines instead of
// virtual time, so this is the -race job's main recovery workout.
func TestRestartRecoveryChan(t *testing.T) {
	for _, alg := range []string{"eqaso", "sso"} {
		t.Run(alg, func(t *testing.T) {
			res, err := Run(Config{
				N: 5, F: 2, Engine: alg, Seed: 7,
				Duration: 40 * rt.TicksPerD, Mix: restartMix(),
			}, "chan")
			if err != nil {
				t.Fatal(err)
			}
			if !res.Check.OK {
				t.Fatalf("check failed: %v", res.Check.Violations)
			}
			requireRecovery(t, res)
		})
	}
}

// TestRestartConfigValidation: restarts need a WAL-capable algorithm and
// direct clients, and run on every backend — an in-process tcp node
// restarts like a chan node.
func TestRestartConfigValidation(t *testing.T) {
	mix := Mix{Crashes: 1, Restarts: 1}
	if _, err := Run(Config{N: 7, F: 2, Engine: "byzaso", Duration: 1000, Mix: mix}, "sim"); err == nil {
		t.Error("byzaso with restarts accepted, want error")
	}
	if _, err := Run(Config{N: 5, F: 2, Engine: "sso", Service: true, Duration: 1000, Mix: mix}, "sim"); err == nil {
		t.Error("service mode with restarts accepted, want error")
	}
	res, err := Run(Config{N: 5, F: 2, Seed: 7, Duration: 40 * rt.TicksPerD, Mix: restartMix()}, "tcp")
	if err != nil {
		t.Fatalf("tcp backend with restarts: %v", err)
	}
	if !res.Check.OK {
		t.Fatalf("tcp check failed: %v", res.Check.Violations)
	}
	requireRecovery(t, res)
}
