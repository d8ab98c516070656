package bench

import "testing"

func TestLatencyKs(t *testing.T) {
	ks := LatencyKs(16) // {0, 1, 4, 7}
	want := []int{0, 1, 4, 7}
	if len(ks) != len(want) {
		t.Fatalf("ks: got %v want %v", ks, want)
	}
	for i := range want {
		if ks[i] != want[i] {
			t.Fatalf("ks: got %v want %v", ks, want)
		}
	}
	// Small n deduplicates and clamps.
	for _, k := range LatencyKs(5) {
		if k > 1 {
			t.Fatalf("n=5 ks out of range: %v", LatencyKs(5))
		}
	}
}

func TestRunLatencySmall(t *testing.T) {
	l, err := latency(Params{Quick: true, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	points := l.Points.([]LatencyPoint)
	if want := len(LatencyKs(8)) * 3; len(points) != want {
		t.Fatalf("points: got %d want %d", len(points), want)
	}
	byAlgoK := map[Algo]map[int]LatencyPoint{}
	for _, p := range points {
		if p.Unit != "d" {
			t.Fatalf("unit: got %q want d", p.Unit)
		}
		if p.UpdateCount == 0 || p.ScanCount == 0 {
			t.Fatalf("%s k=%d recorded no ops: %+v", p.Algo, p.K, p)
		}
		if p.UpdateP50 <= 0 && p.Algo != SSOFast {
			t.Fatalf("%s k=%d zero update p50", p.Algo, p.K)
		}
		if m := byAlgoK[p.Algo]; m == nil {
			byAlgoK[p.Algo] = map[int]LatencyPoint{}
		}
		byAlgoK[p.Algo][p.K] = p
	}
	// The paper's amortized claim: EQ-ASO's p50 stays O(D) — within a
	// small constant factor of its failure-free p50 — at every k, even
	// though the worst case grows with k.
	free := byAlgoK[EQASO][0]
	for k, p := range byAlgoK[EQASO] {
		if k == 0 {
			continue
		}
		if p.UpdateP50 > 6*free.UpdateP50+6 {
			t.Errorf("eqaso k=%d update p50 %.1fD not O(D) (free %.1fD)", k, p.UpdateP50, free.UpdateP50)
		}
	}
	// SSO scans are local: p50 pinned at ~0 regardless of k.
	for k, p := range byAlgoK[SSOFast] {
		if p.ScanP50 > 0.5 {
			t.Errorf("sso k=%d scan p50 %.2fD, want ~0 (local scans)", k, p.ScanP50)
		}
	}
}
