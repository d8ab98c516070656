package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
)

// quartiles follows Python's statistics.quantiles(values, n=4), which is
// what the harness uses to judge a benchmark's spread.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

type cell struct {
	med, q1, q3, rng float64
	n                int
}

func summarize(v []float64) cell {
	if len(v) == 0 {
		return cell{}
	}
	q1, q2, q3 := quartiles(v)
	lo, hi := v[0], v[0]
	for _, x := range v {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	c := cell{med: q2, q1: q1, q3: q3, n: len(v)}
	if c.med != 0 {
		c.rng = (hi - lo) / c.med
	}
	return c
}

func (c cell) iqr() float64 {
	if c.med == 0 {
		return 0
	}
	return (c.q3 - c.q1) / c.med
}

func valuesOf(set *resultSet, workload, metric string) []float64 {
	var out []float64
	for _, r := range set.Runs {
		if r.Workload == workload {
			if v, ok := r.EndToEnd[metric]; ok {
				out = append(out, v.Value)
			}
		}
	}
	return out
}

// printSpread prints, per workload × end-to-end metric, the median, the
// quartiles, (max−min)/median and the verdict against the metric's bound.
// With one set the verdict is on the spread alone (interquartile range
// over median, within the bound; setup_s is exempt, as in the harness).
// With two it also asks that b's median is not worse than a's by more
// than the bound. It returns whether everything passed.
func printSpread(a, b *resultSet) bool {
	ok := true
	for _, w := range workloadWhy {
		if len(valuesOf(a, w.Name, "ops_per_s")) == 0 {
			continue
		}
		fmt.Printf("\n%s\n", w.Name)
		fmt.Printf("  %-20s %5s %12s %12s %12s %8s %8s", "metric", "bound", "median", "q1", "q3", "iqr/med", "rng/med")
		if b != nil {
			fmt.Printf(" %12s %8s %8s", "median(b)", "iqr(b)", "worse")
		}
		fmt.Println("  verdict")
		for _, d := range endToEnd {
			ca := summarize(valuesOf(a, w.Name, d.Name))
			pass := d.Name == "setup_s" || ca.iqr() <= d.Bound
			fmt.Printf("  %-20s %5.2f %12.4f %12.4f %12.4f %7.1f%% %7.1f%%", d.Name, d.Bound, ca.med, ca.q1, ca.q3, 100*ca.iqr(), 100*ca.rng)
			if b != nil {
				cb := summarize(valuesOf(b, w.Name, d.Name))
				worse := 0.0
				if ca.med != 0 {
					worse = (cb.med - ca.med) / ca.med
					if d.Better == "higher" {
						worse = -worse
					}
				}
				pass = pass && (d.Name == "setup_s" || cb.iqr() <= d.Bound) && worse <= d.Bound
				fmt.Printf(" %12.4f %7.1f%% %+7.1f%%", cb.med, 100*cb.iqr(), 100*worse)
			}
			verdict := "PASS"
			if !pass {
				verdict, ok = "FAIL", false
			}
			fmt.Printf("  %s (n=%d)\n", verdict, ca.n)
		}
	}
	return ok
}

func readSet(path string) (*resultSet, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	set := &resultSet{}
	if err := json.Unmarshal(b, set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return set, nil
}

func compareMain(args []string) int {
	if len(args) < 1 || len(args) > 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare A.json [B.json]")
		return 2
	}
	sets := make([]*resultSet, 2)
	for i, p := range args {
		s, err := readSet(p)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark compare:", err)
			return 1
		}
		sets[i] = s
	}
	if !printSpread(sets[0], sets[1]) {
		return 1
	}
	return 0
}
