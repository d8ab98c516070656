package bench

import (
	"strings"
	"testing"
)

func TestRunClusterSmall(t *testing.T) {
	// The full keys/scans parameters: the 1.2× gate is measured on means,
	// and smaller samples are noisy enough to sit right at the limit.
	c, err := clusterScan(Params{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	points := c.Points.([]ClusterPoint)
	if len(points) != 4 {
		t.Fatalf("points: got %d want 4", len(points))
	}
	if base := c.Derived["baselineScanD"]; base <= 0 {
		t.Fatalf("baseline scan %.2fD, want > 0", base)
	}
	for _, p := range points {
		if p.ScanMeanD <= 0 || p.ScanWorstD < p.ScanMeanD {
			t.Errorf("shards=%d: implausible scan latency %+v", p.Shards, p)
		}
		if p.SkewMaxD < p.SkewMeanD {
			t.Errorf("shards=%d: skew max %.2fD below mean %.2fD", p.Shards, p.SkewMaxD, p.SkewMeanD)
		}
		if p.Nodes != p.Shards*3 || p.Keys != p.Shards*8 {
			t.Errorf("shards=%d: wrong topology in point %+v", p.Shards, p)
		}
	}
	if ratio := c.Derived["oneShardRatio"]; ratio <= 0 {
		t.Fatalf("one-shard ratio %.2f, want > 0", ratio)
	}
	// The acceptance gate the bench-smoke run enforces.
	if err := c.Check(); err != nil {
		t.Errorf("shards=1 overhead gate: %v", err)
	}
	if out := c.Render(); !strings.Contains(out, "baseline") {
		t.Fatalf("render missing baseline line:\n%s", out)
	}
}
