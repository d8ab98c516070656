package bench

import (
	"strings"
	"testing"
)

func TestRunClusterSmall(t *testing.T) {
	// Shipped keys/scans parameters: the 1.2× gate is measured on means,
	// and smaller samples are noisy enough to sit right at the limit.
	c, err := RunCluster(3, 1, []int{1, 2}, 8, 5, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Points) != 2 {
		t.Fatalf("points: got %d want 2", len(c.Points))
	}
	if c.BaselineScanD <= 0 {
		t.Fatalf("baseline scan %.2fD, want > 0", c.BaselineScanD)
	}
	for _, p := range c.Points {
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
	if c.OneShardRatio <= 0 {
		t.Fatalf("one-shard ratio %.2f, want > 0", c.OneShardRatio)
	}
	// The acceptance gate the bench-smoke run enforces.
	if err := c.Check(); err != nil {
		t.Errorf("shards=1 overhead gate: %v", err)
	}
	if out := c.Render(); !strings.Contains(out, "baseline") {
		t.Fatalf("render missing baseline line:\n%s", out)
	}
}
