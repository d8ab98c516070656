// Command benchmark is the repository's benchmark: four workloads over
// the production stack, seven end-to-end metrics per workload measured with
// every observer off, and a separate traced run that attributes time and
// work to each layer from outside the stack. See README.md.
//
//	bash benchmark/run.sh                         every workload, untraced
//	bash benchmark/run.sh -trace 1                plus the per-layer trace
//	bash benchmark/run.sh -repeat 5 -out a.json   five sets and their spread
//	bash benchmark/run.sh compare a.json b.json   do two sets agree?
//	bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"time"

	_ "mpsnap/internal/engine/all"
)

const (
	// refSeconds is the measured time a run is sized for (run_seconds in
	// BENCHMARK.json): each repetition's op list is refSeconds/reps of
	// arrivals at the workload's fixed rate. --seconds scales the counts
	// by seconds/refSeconds; the work is fixed by the flag, never by how
	// fast the host happens to be.
	refSeconds = 25.0
	// reps is the number of repetitions of the same op list per run, each
	// on a freshly built stack. Reported values are their medians.
	reps = 5
	// burstEvery is the open loops' period; measuredBursts of them make
	// one repetition's refSeconds/reps of measured time.
	burstEvery     = 2 * time.Millisecond
	measuredBursts = int(refSeconds / reps * float64(time.Second) / float64(burstEvery))
	// warmBursts is the warm-up, charged to setup_s: half a second of
	// arrivals at the workload's own rate.
	warmBursts = 250
)

func scaleOps(n int, seconds float64) int {
	v := int(math.Round(float64(n) * seconds / refSeconds))
	if v < 1 {
		v = 1
	}
	return v
}

type wlKind int

const (
	kindTCP wlKind = iota
	kindCluster
	kindSim
)

type workload struct {
	name  string
	kind  wlKind
	nodes int
	spec  func(seconds float64) opSpec
	run   func(l *opList, tr *tracer) (*rep, error)
}

func workloads() []*workload {
	// Offered rates are burst/burstEvery: 48k, 8k and 500 ops/s, which keep
	// about half of the reference guest's two processors busy on each
	// stack. Lower rates were tried first and were the noisier ones: the
	// median latency is the same 1.1 ms at 12k, 24k and 48k acr ops/s (the
	// transport's flush timer sets it, not the queue), but processors that
	// fall idle between bursts wake late and by varying amounts, and the
	// interquartile spread of update_p50_us over runs fell from 11% to 5%
	// as the rate rose. The cluster sustained 10k ops/s, but anywhere near
	// that its batch sizes, and with them its cost per op, follow the
	// host's speed of the moment: it runs at 500 ops/s, where an op mostly
	// travels alone.
	acr := tcpWorkload{engine: "acr", n: 3, f: 1, scanPct: 5, payload: 16, burst: 96}
	eq := tcpWorkload{engine: "eqaso", n: 3, f: 1, scanPct: 50, payload: 256, burst: 16}
	cl := clusterWorkload{shards: 2, members: 3, f: 1, scanPct: 10, payload: 64, keys: 1024, zipfS: 1.1, burst: 1}
	sm := simWorkload{n: 7, f: 3, crashes: 3, worlds: 8, sessions: 16, scanPct: 20, payload: 32, perSession: 30, warmPerSess: 5, opVirtualD: 22, realPerD: 500 * time.Microsecond}
	return []*workload{
		{wlACR, kindTCP, acr.n, acr.spec, acr.run},
		{wlEQ, kindTCP, eq.n, eq.spec, eq.run},
		{wlCluster, kindCluster, cl.shards * cl.members, cl.spec, cl.run},
		{wlSim, kindSim, sm.n, sm.spec, sm.run},
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is one run of one workload: reps repetitions untraced, or
// all but the last untraced and the last traced.
type runResult struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Trace     int                    `json:"trace"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"ops_attempted"`
	Failed    int                    `json:"ops_failed"`
	EndToEnd  map[string]metricValue `json:"end_to_end"`
	PerLayer  map[string]metricValue `json:"per_layer,omitempty"`
	Samples   map[string]int         `json:"samples"`
	Host      map[string]float64     `json:"host"`
	Reps      []map[string]float64   `json:"reps"`
	Redone    []map[string]float64   `json:"redone,omitempty"` // repetitions dropped for steal, see host.go
	Problems  []string               `json:"problems,omitempty"`
	Noisy     []string               `json:"noisy,omitempty"`
	TraceFile string                 `json:"trace_file,omitempty"`
}

// values is the repetition's client-visible result: the end-to-end
// metrics plus the figures reported under client.* and proc.*.
func (r *rep) values() map[string]float64 {
	u, s := sortedCopy(r.upd), sortedCopy(r.scan)
	ops := math.Max(float64(r.ops), 1)
	return map[string]float64{
		"setup_s":              r.setupS,
		"ops_per_s":            float64(r.ops) / r.wallS,
		"update_p50_us":        percentile(u, .50) / 1e3,
		"client.update_p99_us": percentile(u, .99) / 1e3,
		"scan_p50_us":          percentile(s, .50) / 1e3,
		"client.scan_p99_us":   percentile(s, .99) / 1e3,
		"proc.cpu_us_per_op":   r.cpuUS / ops,
		"allocs_per_op":        float64(r.mallocs) / ops,
		"alloc_bytes_per_op":   float64(r.allocBytes) / ops,
		"live_heap_mb":         float64(r.liveHeap) / 1e6,
	}
}

// repOut is what one repetition hands back to its run.
type repOut struct {
	Values         map[string]float64
	Updates, Scans int
	Failed         int
	CrashPending   int
	Problems       []string
	Virtual        *virtual
	Layers         map[string]float64 // traced repetition only
	TraceFile      string
}

// runRep executes the op list once on a freshly built stack.
func runRep(w *workload, l *opList, seconds float64, traced bool) (*repOut, error) {
	var tr *tracer
	if traced {
		tr = newTracer(w.nodes, len(l.ops))
	}
	runtime.GC()
	r, err := w.run(l, tr)
	if err != nil {
		return nil, err
	}
	out := &repOut{
		Values: r.values(), Updates: len(r.upd), Scans: len(r.scan),
		Failed: r.failed, CrashPending: r.crashPending, Problems: r.problems, Virtual: r.virt,
	}
	if !traced {
		return out, nil
	}
	layers, tf := tr.layerMetrics(w, l, r)
	var captured [][]byte
	for _, nt := range tr.nodes {
		captured = append(captured, nt.corpus...)
	}
	frames, msgs := decodeCorpus(captured)
	wireMicro(frames, msgs, layers)
	if err := transportMicro(msgs, seconds, layers); err != nil {
		return nil, err
	}
	if out.TraceFile, err = writeTrace(tf); err != nil {
		return nil, fmt.Errorf("write trace: %w", err)
	}
	out.Layers = layers
	out.Problems = append(out.Problems, tr.problems...)
	return out, nil
}

// runWorkload runs one workload once: the op list is generated from the
// seed before any timing, then executed reps times, the last of them
// traced when trace is set.
func runWorkload(w *workload, seed int64, seconds float64, trace int) (*runResult, error) {
	res := &runResult{Workload: w.name, Seed: seed, Seconds: seconds, Trace: trace, Samples: map[string]int{}}
	probe := beginHostProbe()
	l := genOps(seed, w.spec(seconds))
	var all []*repOut // every repetition run; the last is the traced one
	start := time.Now()
	for kept := 0; kept < reps; {
		traced := trace != 0 && kept == reps-1
		cpu := readCPU()
		r, err := runRep(w, l, seconds, traced)
		if err != nil {
			return nil, fmt.Errorf("%s repetition %d: %w", w.name, len(all)+1, err)
		}
		r.Values["host.steal_pct"] = cpu.stealPct()
		all = append(all, r)
		if r.Values["host.steal_pct"] > stealLimitPct && time.Since(start) < redoAllowance {
			res.Redone = append(res.Redone, r.Values)
			waitQuietHost(start.Add(redoAllowance))
			continue
		}
		kept++
		if !traced {
			res.Reps = append(res.Reps, r.Values)
		}
	}
	col := func(name string) []float64 {
		var vs []float64
		for _, e := range res.Reps {
			vs = append(vs, e[name])
		}
		return vs
	}
	res.EndToEnd = make(map[string]metricValue, len(endToEnd))
	for _, d := range endToEnd {
		vs := col(d.Name)
		res.EndToEnd[d.Name] = metricValue{median(vs), d.Unit}
		// Counts should agree across repetitions of identical work; when
		// they do not, the host (or the program's timing-dependent
		// batching) moved them, and the run says so.
		if d.Unit == "count" || d.Unit == "B" {
			if sp := spreadPct(vs) / 100; sp > d.Bound {
				res.Noisy = append(res.Noisy, fmt.Sprintf("%s spread %.1f%% across repetitions exceeds its %.0f%% bound", d.Name, 100*sp, 100*d.Bound))
			}
		}
	}
	res.Samples["update"], res.Samples["scan"] = all[0].Updates, all[0].Scans
	res.Host = probe.end(spreadPct(col("update_p50_us")), len(res.Redone))

	if last := all[len(all)-1]; last.Layers != nil {
		layers := last.Layers
		// At a fixed offered rate tracing cannot lower ops_per_s; what
		// it costs shows as processor time per op.
		if base := median(col("proc.cpu_us_per_op")); base > 0 {
			layers["trace.overhead_pct"] = 100 * (last.Values["proc.cpu_us_per_op"]/base - 1)
		}
		for k, v := range res.Host {
			layers[k] = v
		}
		for _, name := range []string{"client.update_p99_us", "client.scan_p99_us", "proc.cpu_us_per_op"} {
			layers[name] = median(col(name))
		}
		res.PerLayer = make(map[string]metricValue, len(perLayer))
		for _, d := range perLayer {
			res.PerLayer[d.Name] = metricValue{layers[d.Name], d.Unit}
		}
		res.TraceFile = last.TraceFile
	}

	for i, r := range all {
		for _, p := range r.Problems {
			res.Problems = append(res.Problems, fmt.Sprintf("repetition %d: %s", i+1, p))
		}
		res.Attempted += r.Updates + r.Scans + r.Failed
		res.Failed += r.Failed
		// The simulator's virtual results are a pure function of the seed.
		if r.Virtual != nil && (!reflect.DeepEqual(r.Virtual, all[0].Virtual) || r.CrashPending != all[0].CrashPending) {
			res.Problems = append(res.Problems, fmt.Sprintf("repetition %d: virtual results differ from repetition 1: %+v vs %+v", i+1, *r.Virtual, *all[0].Virtual))
		}
	}
	res.Correct = len(res.Problems) == 0
	return res, nil
}

func (res *runResult) print() {
	fmt.Printf("== %s  seed=%d seconds=%g trace=%d  ops_attempted=%d ops_failed=%d correct=%v\n",
		res.Workload, res.Seed, res.Seconds, res.Trace, res.Attempted, res.Failed, res.Correct)
	for _, d := range endToEnd {
		note := ""
		switch d.Name {
		case "update_p50_us":
			note = fmt.Sprintf("  (n=%d per repetition)", res.Samples["update"])
		case "scan_p50_us":
			note = fmt.Sprintf("  (n=%d per repetition)", res.Samples["scan"])
		}
		fmt.Printf("  %-28s %14.4f %-5s%s\n", d.Name, res.EndToEnd[d.Name].Value, d.Unit, note)
	}
	for _, d := range perLayer {
		if v, ok := res.PerLayer[d.Name]; ok {
			fmt.Printf("  %-32s %14.4f %s\n", d.Name, v.Value, d.Unit)
		}
	}
	if res.PerLayer == nil {
		for _, k := range []string{"host.steal_pct", "host.spin_ms_before", "host.spin_ms_after", "host.rep_spread_pct", "host.reps_redone"} {
			fmt.Printf("  %-28s %14.4f\n", k, res.Host[k])
		}
	}
	if res.TraceFile != "" {
		fmt.Printf("  spans written to %s\n", res.TraceFile)
	}
	for _, p := range res.Problems {
		fmt.Printf("  INCORRECT: %s\n", p)
	}
	for _, p := range res.Noisy {
		fmt.Printf("  noisy: %s\n", p)
	}
}

// driverLine is the contract with the harness: the last line of stdout.
func (res *runResult) driverLine() string {
	metrics := res.EndToEnd
	if res.Trace != 0 {
		metrics = res.PerLayer
	}
	b, _ := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics})
	return string(b)
}

// resultSet is the file -out writes and compare reads.
type resultSet struct {
	Env  hostEnv      `json:"env"`
	Runs []*runResult `json:"runs"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	name := flag.String("workload", "", "run one workload and end with the harness's JSON line (default: all four)")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same op list")
	seconds := flag.Float64("seconds", refSeconds, "measured seconds a run is sized for; scales the fixed op counts")
	trace := flag.Int("trace", 0, "1: the last repetition is traced; prints per-layer metrics, writes benchmark/out/trace-<workload>.json")
	repeat := flag.Int("repeat", 1, "run the set this many times on seeds seed, seed+1, … and print each metric's spread")
	out := flag.String("out", "", "write every run's full result to this JSON file (default benchmark/out/result.json when running all workloads)")
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || *repeat < 1 {
		fmt.Fprintln(os.Stderr, "usage: benchmark [-workload W] [-seed N] [-seconds S] [-trace 0|1] [-repeat N] [-out FILE] | benchmark compare A.json [B.json]")
		os.Exit(2)
	}
	var selected []*workload
	for _, w := range workloads() {
		if *name == "" || *name == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(os.Stderr, "unknown workload %q\n", *name)
		os.Exit(2)
	}
	set := &resultSet{Env: readEnv()}
	fmt.Printf("%s, nproc=%d GOMAXPROCS=%d, kernel %s\n", set.Env.GoVersion, set.Env.NumCPU, set.Env.GOMAXPROCS, set.Env.Kernel)
	correct := true
	for i := 0; i < *repeat; i++ {
		for _, w := range selected {
			res, err := runWorkload(w, *seed+int64(i), *seconds, *trace)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				os.Exit(1)
			}
			res.print()
			correct = correct && res.Correct
			set.Runs = append(set.Runs, res)
		}
	}
	if *out == "" && *name == "" {
		*out = filepath.Join("benchmark", "out", "result.json")
	}
	if *out != "" {
		if err := writeSet(*out, set); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		fmt.Println("results written to", *out)
	}
	if *repeat > 1 {
		printSpread(set, nil)
	}
	if *name != "" && *repeat == 1 {
		// The harness reads correctness from this line, so the exit code
		// stays 0 once a result exists.
		fmt.Println(set.Runs[0].driverLine())
		return
	}
	if !correct {
		os.Exit(1)
	}
}

func writeSet(path string, set *resultSet) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(set, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
