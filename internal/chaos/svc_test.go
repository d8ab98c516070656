package chaos

import (
	"fmt"
	"testing"

	"mpsnap/internal/rt"
)

// TestServiceConcurrentClientsUnderChaos: N concurrent clients per node
// drive the object through the svc layer while crashes (including
// mid-broadcast, i.e. mid-batch for coalesced updates), partitions, drops,
// and delay spikes are injected. Across several seeds the recorded
// histories must still pass the consistency checker — linearizability for
// eqaso, sequential consistency for sso.
func TestServiceConcurrentClientsUnderChaos(t *testing.T) {
	// Two crashes (the second always strikes mid-broadcast) plus two
	// partition episodes per run: every seed exercises both crash-mid-batch
	// and partition recovery.
	mix := Mix{Crashes: 2, Partitions: 2, DropWindows: 1, DropProb: 0.2, SpikeWindows: 1, SpikeExtraD: 3}
	seeds := []int64{101, 202, 303, 404}
	for _, alg := range []string{"eqaso", "sso"} {
		for _, seed := range seeds {
			res, err := Run(Config{
				N: 5, F: 2, Engine: alg, Seed: seed,
				Duration: 40 * rt.TicksPerD,
				Mix:      mix,
				Service:  true,
				Clients:  4,
			}, "sim")
			if err != nil {
				t.Fatalf("%s seed %d: %v", alg, seed, err)
			}
			var crashes, mid, partitions int
			for _, ev := range res.Schedule.Events {
				switch ev.Kind {
				case EvCrash:
					crashes++
					if ev.Mid {
						mid++
					}
				case EvPartition:
					partitions++
				}
			}
			if crashes == 0 || mid == 0 || partitions == 0 {
				t.Fatalf("%s seed %d: schedule lacks faults (crashes=%d mid=%d partitions=%d)", alg, seed, crashes, mid, partitions)
			}
			if !res.Check.OK {
				t.Errorf("%s seed %d: check failed: %v", alg, seed, res.Check.Violations)
			}
			if res.Hist == nil || len(res.Hist.Ops) == 0 {
				t.Errorf("%s seed %d: empty history", alg, seed)
			}
		}
	}
}

// TestServiceRequiresSimBackend: service mode is rejected on transports
// and multi-client runs require the service.
func TestServiceRequiresSimBackend(t *testing.T) {
	if _, err := Run(Config{N: 3, F: 1, Seed: 1, Duration: 1000, Service: true}, "chan"); err == nil {
		t.Error("transport + Service must error")
	}
	if _, err := Run(Config{N: 3, F: 1, Seed: 1, Duration: 1000, Clients: 2}, "sim"); err == nil {
		t.Error("Clients > 1 without Service must error")
	}
	if _, err := Run(Config{N: 3, F: 1, Seed: 1, Duration: 1000, Clients: -1}, "sim"); err == nil {
		t.Error("negative Clients must error")
	}
}

// TestServiceSingleClientDeterminism: service-mode runs replay exactly.
func TestServiceSingleClientDeterminism(t *testing.T) {
	cfg := Config{N: 5, F: 2, Seed: 55, Duration: 30 * rt.TicksPerD, Service: true, Clients: 2}
	a, err := Run(cfg, "sim")
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg, "sim")
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Hist.Ops) != len(b.Hist.Ops) {
		t.Fatalf("replay diverged: %d vs %d ops", len(a.Hist.Ops), len(b.Hist.Ops))
	}
	for i := range a.Hist.Ops {
		oa, ob := fmt.Sprintf("%+v", a.Hist.Ops[i]), fmt.Sprintf("%+v", b.Hist.Ops[i])
		if oa != ob {
			t.Fatalf("op %d diverged: %s vs %s", i, oa, ob)
		}
	}
}
