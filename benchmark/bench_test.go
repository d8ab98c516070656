package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// The program resolves benchmark/out and .bench_build from the repository
// root, which is where run.sh starts it.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestCatalogueMatchesBenchmarkJSON keeps BENCHMARK.json and the
// program's catalogue the same list, and both inside the harness's rules.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if b.RunSeconds != int(refSeconds) {
		t.Errorf("run_seconds = %d, the program is sized for %v", b.RunSeconds, refSeconds)
	}
	if !reflect.DeepEqual(b.Paths, []string{"benchmark"}) {
		t.Errorf("paths = %v", b.Paths)
	}
	seen := map[string]bool{}
	checkName := func(n string) {
		t.Helper()
		if !nameRE.MatchString(n) {
			t.Errorf("name %q has characters outside [A-Za-z0-9_.-] or is too long", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if len(b.Workloads) != len(workloadWhy) || len(b.Workloads) != len(workloads()) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(b.Workloads), len(workloads()))
	}
	for i, w := range b.Workloads {
		checkName(w.Name)
		if w.Name != workloadWhy[i].Name || w.Why != workloadWhy[i].Why || w.Name != workloads()[i].name {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q", i, w.Name, workloadWhy[i].Name)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the program %d", len(b.EndToEnd), len(endToEnd))
	}
	maxBound := 0.0
	for i, m := range b.EndToEnd {
		checkName(m.Name)
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the program %+v", i, m, d)
		}
		if !unitRE.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("end-to-end metric %s breaks the harness's rules: %+v", m.Name, m)
		}
		if m.Bound > maxBound {
			maxBound = m.Bound
		}
	}
	if endToEnd[0].Name != "setup_s" || endToEnd[0].Bound != maxBound {
		t.Errorf("setup_s must be listed and carry the largest bound")
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the program %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		checkName(m.Name)
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the program %s %s %s", i, m, d.Name, d.Unit, d.Better)
		}
		if !unitRE.MatchString(m.Unit) || d.Moves == "" {
			t.Errorf("per-layer metric %s: bad unit or no prediction", m.Name)
		}
	}
}

func keysOf(m map[string]metricValue) []string {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

func catalogueNames(defs []metricDef) []string {
	var ks []string
	for _, d := range defs {
		ks = append(ks, d.Name)
	}
	sort.Strings(ks)
	return ks
}

// TestWorkloadsEmitTheCatalogue runs every workload at about 1/100 scale,
// traced, and checks what comes out: exactly the listed names, correct
// outputs, the harness's last line, a whole span tree, and the issue's
// two predictions. It asserts no timing.
func TestWorkloadsEmitTheCatalogue(t *testing.T) {
	for _, w := range workloads() {
		res, err := runWorkload(w, 7, refSeconds/100, 1)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !res.Correct {
			t.Errorf("%s: incorrect: %v", w.name, res.Problems)
		}
		if res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s: attempted %d failed %d", w.name, res.Attempted, res.Failed)
		}
		if got, want := keysOf(res.EndToEnd), catalogueNames(endToEnd); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: end-to-end names %v, catalogue %v", w.name, got, want)
		}
		if got, want := keysOf(res.PerLayer), catalogueNames(perLayer); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: per-layer names %v, catalogue %v", w.name, got, want)
		}
		for _, d := range endToEnd {
			if v := res.EndToEnd[d.Name].Value; !(v > 0) {
				t.Errorf("%s: %s = %v, end-to-end metrics are never 0", w.name, d.Name, v)
			}
		}

		var line struct {
			Correct   *bool                  `json:"correct"`
			Attempted *int                   `json:"attempted"`
			Failed    *int                   `json:"failed"`
			Metrics   map[string]metricValue `json:"metrics"`
		}
		dec := json.NewDecoder(strings.NewReader(res.driverLine()))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&line); err != nil || line.Correct == nil || line.Attempted == nil || line.Failed == nil {
			t.Errorf("%s: harness line %q: %v", w.name, res.driverLine(), err)
		}
		if !reflect.DeepEqual(keysOf(line.Metrics), catalogueNames(perLayer)) {
			t.Errorf("%s: a traced harness line carries the per-layer metrics", w.name)
		}
		res.Trace = 0
		line.Metrics = nil
		if err := json.Unmarshal([]byte(res.driverLine()), &line); err != nil || !reflect.DeepEqual(keysOf(line.Metrics), catalogueNames(endToEnd)) {
			t.Errorf("%s: an untraced harness line carries the end-to-end metrics", w.name)
		}

		layer := func(name string) float64 { return res.PerLayer[name].Value }
		for _, d := range perLayer {
			off := (strings.HasPrefix(d.Name, "wal.") || strings.HasPrefix(d.Name, "cluster.")) && w.kind != kindCluster
			off = off || (strings.HasPrefix(d.Name, "sim.") && w.kind != kindSim)
			off = off || (d.Name == "transport.msgs_per_op" && w.kind == kindSim)
			if off && layer(d.Name) != 0 {
				t.Errorf("%s: %s = %v, predicted 0", w.name, d.Name, layer(d.Name))
			}
		}
		if w.kind == kindCluster && (layer("wal.syncs_per_op") == 0 || layer("cluster.call_p50_us") == 0) {
			t.Errorf("%s: wal.* and cluster.* must be live here", w.name)
		}
		if w.kind != kindSim && layer("transport.msgs_per_op") == 0 {
			t.Errorf("%s: transport.msgs_per_op = 0 on a TCP workload", w.name)
		}
		if layer("engine.busy_us_per_op") == 0 || layer("engine.handler_calls_per_op") == 0 || layer("wire.encode_ns_per_msg") == 0 {
			t.Errorf("%s: engine and wire layers recorded nothing", w.name)
		}

		raw, err := os.ReadFile(res.TraceFile)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		var tf traceFile
		if err := json.Unmarshal(raw, &tf); err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		roots := 0
		for i, s := range tf.Spans {
			if s.EndUS < s.StartUS {
				t.Errorf("%s: span %d %s ends before it starts", w.name, i, s.Name)
			}
			if s.Parent < 0 {
				if s.Name == "client.op" {
					roots++
				}
				continue
			}
			if p := tf.Spans[s.Parent]; s.Parent >= i || s.StartUS < p.StartUS || s.EndUS > p.EndUS {
				t.Errorf("%s: span %d %s [%d,%d] exceeds its parent %s [%d,%d]", w.name, i, s.Name, s.StartUS, s.EndUS, p.Name, p.StartUS, p.EndUS)
			}
		}
		if roots == 0 || roots != tf.SampledOps {
			t.Errorf("%s: %d client.op trees for %d sampled ops", w.name, roots, tf.SampledOps)
		}
		if pct := layer("trace.self_sum_pct"); pct < 90 || pct > 110 {
			t.Errorf("%s: per-layer self times sum to %.1f%% of sampled client.op time", w.name, pct)
		}
		if tf.SelfUS["engine.call"] == 0 {
			t.Errorf("%s: no sampled op reached an engine.call span", w.name)
		}
	}
}

// TestSelfTimes: a layer's self time is its span minus what its children
// cover, overlapping children counted once, children clipped to it.
func TestSelfTimes(t *testing.T) {
	spans := []spanRec{
		{Name: "client.op", StartUS: 0, EndUS: 100, Parent: -1},
		{Name: "svc.wait", StartUS: 10, EndUS: 90, Parent: 0},
		{Name: "engine.call", StartUS: 30, EndUS: 80, Parent: 1},
		{Name: "wal.write", StartUS: 35, EndUS: 40, Parent: 2},
		{Name: "wal.sync", StartUS: 40, EndUS: 60, Parent: 2},
		{Name: "wal.sync", StartUS: 55, EndUS: 70, Parent: 2},     // overlaps its sibling by 5
		{Name: "engine.handle", StartUS: 5, EndUS: 9, Parent: -1}, // parentless
		{Name: "wal.sync", StartUS: 75, EndUS: 95, Parent: 2},     // runs 15 past its parent
	}
	want := []int64{20, 30, 10, 5, 20, 15, 4, 20}
	got := selfTimes(spans)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("self times %v, want %v", got, want)
	}
	// With whole trees (no overlap, nothing past a parent) the layers sum
	// to the root exactly.
	whole := spans[:5]
	var sum int64
	for _, s := range selfTimes(whole) {
		sum += s
	}
	if sum != 100 {
		t.Errorf("self times of a whole tree sum to %d, want the root's 100", sum)
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v %v %v, Python gives 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, _, q3 = quartiles([]float64{10, 50, 20, 40, 30})
	if q1 != 15 || q3 != 45 {
		t.Errorf("quartiles of 10..50 = %v %v, Python gives 15 45", q1, q3)
	}
}

// TestOpListFromSeed: the same seed gives the same inputs, another seed
// gives others, and every payload names its op.
func TestOpListFromSeed(t *testing.T) {
	sp := opSpec{warm: 10, measured: 200, scanPct: 30, nodes: 6, payload: 64, keys: 1024, zipfS: 1.1}
	a, b, c := genOps(3, sp), genOps(3, sp), genOps(4, sp)
	if !reflect.DeepEqual(a.ops, b.ops) || !bytes.Equal(a.arena, b.arena) {
		t.Error("the same seed gave different op lists")
	}
	if reflect.DeepEqual(a.ops, c.ops) {
		t.Error("different seeds gave the same op list")
	}
	for i := range a.ops {
		if got, ok := payloadOp(a.payload(i)); !ok || got != i {
			t.Fatalf("payload %d names op %d", i, got)
		}
	}
}
