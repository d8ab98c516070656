package bench

import (
	"fmt"
	"math"
	"strings"
	"text/tabwriter"

	"mpsnap/internal/obs"
)

// LatencyPoint is one cell of the latency-vs-k experiment: the latency
// distribution (in D units, from obs histograms) of one algorithm under k
// injected crashes.
type LatencyPoint struct {
	Algo Algo   `json:"algo"`
	N    int    `json:"n"`
	F    int    `json:"f"`
	K    int    `json:"k"`
	Unit string `json:"unit"` // always "d" (sim backend)

	UpdateCount uint64  `json:"updateCount"`
	UpdateP50   float64 `json:"updateP50"`
	UpdateP99   float64 `json:"updateP99"`
	UpdateMax   float64 `json:"updateMax"`

	ScanCount uint64  `json:"scanCount"`
	ScanP50   float64 `json:"scanP50"`
	ScanP99   float64 `json:"scanP99"`
	ScanMax   float64 `json:"scanMax"`

	Msgs int64 `json:"msgs"`
}

// Latency is the full experiment result, serialized to BENCH_latency.json
// by cmd/asobench -e latency.
type Latency struct {
	Env        Env            `json:"env"`
	N          int            `json:"n"`
	OpsPerNode int            `json:"opsPerNode"`
	Seed       int64          `json:"seed"`
	Ks         []int          `json:"ks"`
	Points     []LatencyPoint `json:"points"`
}

// LatencyKs is the crash-count ladder of the experiment: k ∈ {0, 1, √n,
// n/2−1}, deduplicated and capped at n/2−1 (the crash-resilience bound).
func LatencyKs(n int) []int {
	cand := []int{0, 1, int(math.Sqrt(float64(n))), n/2 - 1}
	var ks []int
	for _, k := range cand {
		if k < 0 {
			k = 0
		}
		if max := n/2 - 1; k > max {
			k = max
		}
		dup := false
		for _, seen := range ks {
			if seen == k {
				dup = true
			}
		}
		if !dup {
			ks = append(ks, k)
		}
	}
	return ks
}

// latencyAlgos are the instrumented algorithms the experiment covers.
func latencyAlgos() []Algo { return []Algo{EQASO, SSOFast, ByzASO} }

// RunLatency measures per-algorithm UPDATE/SCAN latency distributions in
// D units for each k in LatencyKs(n). EQ-ASO and the SSO face the
// failure-chain adversary (their analytical √k·D worst case); the
// Byzantine ASO faces plain crashes with k clamped to its f=(n−1)/3
// bound. Latencies come from obs.Metrics histograms recorded by the
// algorithms' own op events — the same numbers /metrics would export.
func RunLatency(n, opsPerNode int, seed int64) (Latency, error) {
	out := Latency{Env: CaptureEnv(), N: n, OpsPerNode: opsPerNode, Seed: seed, Ks: LatencyKs(n)}
	for _, a := range latencyAlgos() {
		f := (n - 1) / 2
		if a == ByzASO {
			f = (n - 1) / 3
		}
		for _, k := range out.Ks {
			ka := k
			if ka > f {
				ka = f
			}
			m := obs.NewSimMetrics()
			chains := a == EQASO || a == SSOFast
			res, err := Run(Config{
				Algo: a, N: n, F: f, OpsPerNode: opsPerNode, ScanRatio: 0.5,
				Seed: seed + int64(k)*101, Faults: Faults{Crashes: ka, Chains: chains},
				Check: false, Observer: m,
			})
			if err != nil {
				return out, fmt.Errorf("latency %s k=%d: %w", a, k, err)
			}
			upd, scan := m.Op("update"), m.Op("scan")
			p := LatencyPoint{
				Algo: a, N: n, F: f, K: res.K, Unit: m.Unit,
				UpdateCount: upd.Count, ScanCount: scan.Count,
				Msgs: res.Msgs,
			}
			p.UpdateP50, _, p.UpdateP99, p.UpdateMax = upd.Summary()
			p.ScanP50, _, p.ScanP99, p.ScanMax = scan.Summary()
			out.Points = append(out.Points, p)
		}
	}
	return out, nil
}

// Check always passes: the latency sweep reports shape and has no
// acceptance gate (the method lets cmd/asobench treat every artifact-
// producing experiment alike).
func (l Latency) Check() error { return nil }

// Render formats the experiment as the human-readable table printed by
// cmd/asobench -e latency.
func (l Latency) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Latency vs crash count k: n=%d, %d ops/node, constant-D delays, latencies in D units\n", l.N, l.OpsPerNode)
	sb.WriteString("(eqaso/sso face failure chains; byzaso plain crashes, k clamped to its f)\n")
	w := tabwriter.NewWriter(&sb, 2, 0, 2, ' ', 0)
	fmt.Fprintf(w, "algorithm\tk\tupd p50\tupd p99\tupd max\tscan p50\tscan p99\tscan max\tops\n")
	for _, p := range l.Points {
		fmt.Fprintf(w, "%s\t%d\t%.1fD\t%.1fD\t%.1fD\t%.1fD\t%.1fD\t%.1fD\t%d\n",
			p.Algo, p.K, p.UpdateP50, p.UpdateP99, p.UpdateMax,
			p.ScanP50, p.ScanP99, p.ScanMax, p.UpdateCount+p.ScanCount)
	}
	w.Flush()
	sb.WriteString("shape: p50 stays O(D) for eqaso/sso at every k (amortized bound) while\n")
	sb.WriteString("max grows with k (≈√k·D under chains); sso scan columns stay ~0 (local).\n")
	return sb.String()
}
