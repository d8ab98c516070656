package bench

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// TestExperimentTable: the table is well-formed and every entry runs at
// its quick parameters, renders a table and survives a JSON round trip; an
// entry names a gate exactly when its report carries a check.
func TestExperimentTable(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range Experiments {
		if seen[e.Name] {
			t.Errorf("duplicate experiment %q", e.Name)
		}
		seen[e.Name] = true
		if e.Artifact != "" && e.Artifact != "BENCH_"+e.Name+".json" {
			t.Errorf("%s: artifact %q, want BENCH_%s.json or none", e.Name, e.Artifact, e.Name)
		}
		t.Run(e.Name, func(t *testing.T) {
			if e.Explicit && testing.Short() {
				t.Skip("explicit-only experiment (wall-clock seconds)")
			}
			r, err := e.Run(Params{Quick: true, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			if r.Experiment != e.Name || !r.Quick || r.Seed != 1 || r.Env.GoVersion == "" {
				t.Errorf("envelope not stamped: %+v", r)
			}
			if len(r.Table.Rows) < 2 || !strings.Contains(r.Render(), r.Table.Title) {
				t.Errorf("no table rendered:\n%s", r.Render())
			}
			if (e.Gate != "") != (r.check != nil) {
				t.Errorf("gate %q but report has check = %v", e.Gate, r.check != nil)
			}
			if (e.Artifact != "") != (r.Points != nil) {
				t.Errorf("artifact %q but report has points = %v", e.Artifact, r.Points != nil)
			}
			path := filepath.Join(t.TempDir(), "r.json")
			if err := r.WriteJSON(path); err != nil {
				t.Fatal(err)
			}
			var points any
			if r.Points != nil {
				points = reflect.New(reflect.TypeOf(r.Points)).Interface()
			}
			back, err := Load(path, nil, points)
			if err != nil {
				t.Fatal(err)
			}
			if back.Experiment != e.Name || back.Env != r.Env || !reflect.DeepEqual(back.Derived, r.Derived) {
				t.Errorf("round trip changed the envelope: %+v", back)
			}
			if points != nil && !reflect.DeepEqual(reflect.ValueOf(points).Elem().Interface(), r.Points) {
				t.Errorf("round trip changed the points:\n%+v\n%+v", points, r.Points)
			}
		})
	}
}

// TestCommittedArtifactsReproduce: the virtual-time artifacts are
// deterministic, so re-running each at the parameter set and seed it
// records must give exactly its committed points — a stale or hand-edited
// artifact fails here.
func TestCommittedArtifactsReproduce(t *testing.T) {
	if testing.Short() {
		t.Skip("re-runs four experiments")
	}
	for _, e := range Experiments {
		switch e.Name {
		case "engines", "latency", "throughput", "cluster":
		default:
			continue
		}
		var committed json.RawMessage
		art, err := Load("../../"+e.Artifact, nil, &committed)
		if err != nil {
			t.Fatal(err)
		}
		r, err := e.Run(Params{Quick: art.Quick, Seed: art.Seed})
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(r.Points)
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := json.Compact(&want, committed); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Errorf("%s is not what -e %s (quick=%v, seed=%d) measures: regenerate it (make bench-smoke)",
				e.Artifact, e.Name, art.Quick, art.Seed)
		}
	}
}

// TestBenchSmokeListMatchesTable: the Makefile's BENCH_SMOKE list is the
// artifact-bearing entries `-e all` runs, in table order.
func TestBenchSmokeListMatchesTable(t *testing.T) {
	mk, err := os.ReadFile("../../Makefile")
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`(?m)^BENCH_SMOKE = (.*)$`).FindSubmatch(mk)
	if m == nil {
		t.Fatal("Makefile has no BENCH_SMOKE list")
	}
	var want []string
	for _, e := range Experiments {
		if e.Artifact != "" && !e.Explicit {
			want = append(want, e.Name)
		}
	}
	if got := strings.Fields(string(m[1])); !reflect.DeepEqual(got, want) {
		t.Errorf("Makefile BENCH_SMOKE = %v, bench.Experiments says %v", got, want)
	}
}

// TestExperimentsDocMatchesTable: EXPERIMENTS.md's experiment table has one
// row per entry, in table order, naming the entry's artifact.
func TestExperimentsDocMatchesTable(t *testing.T) {
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	rows := regexp.MustCompile("(?m)^\\| `([a-z0-9]+)` \\|[^|]*\\| (?:`(BENCH_[a-z0-9]+\\.json)`|—) \\|").FindAllSubmatch(doc, -1)
	if len(rows) != len(Experiments) {
		t.Fatalf("EXPERIMENTS.md lists %d experiments, bench.Experiments has %d", len(rows), len(Experiments))
	}
	for i, e := range Experiments {
		if name, artifact := string(rows[i][1]), string(rows[i][2]); name != e.Name || artifact != e.Artifact {
			t.Errorf("EXPERIMENTS.md row %d is %s/%q, bench.Experiments has %s/%q", i, name, artifact, e.Name, e.Artifact)
		}
	}
}
