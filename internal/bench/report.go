package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"text/tabwriter"
)

// Params is what the command line varies across every experiment.
type Params struct {
	Quick bool // the CI-sized parameter set instead of the full one
	Seed  int64
}

// Experiment is one row of Experiments.
type Experiment struct {
	Name     string
	Artifact string // "BENCH_<Name>.json" when the report is a committed artifact, else ""
	Gate     string // what a passing Check establishes; "" = no acceptance criterion
	Explicit bool   // runs only when named: `-e all` skips it
	run      func(Params) (*Report, error)
}

// Experiments is every experiment, in run order. `aso bench`'s -e
// vocabulary, its help text and the `-e all` skip set come from here;
// `make bench-smoke` and EXPERIMENTS.md are checked against it. Each run
// function sits beside its driver with its full and quick parameters.
var Experiments = []Experiment{
	{Name: "table1", run: table1},
	{Name: "sqrtk", run: sqrtK},
	{Name: "amortized", run: amortized},
	{Name: "failurefree", run: failureFree},
	{Name: "byzantine", run: byzantine},
	{Name: "sso", run: ssoScan},
	{Name: "lattice", run: lattice},
	{Name: "messages", run: messages},
	{Name: "latency", Artifact: "BENCH_latency.json", run: latency},
	{Name: "throughput", Artifact: "BENCH_throughput.json", run: throughput},
	{Name: "hotpath", Artifact: "BENCH_hotpath.json", run: hotpath,
		Gate: "log-engine allocations and bytes per window are flat in H, stragglers included"},
	{Name: "recovery", Artifact: "BENCH_recovery.json", run: recovery,
		Gate: "GC-on recovered residency is flat in H"},
	{Name: "cluster", Artifact: "BENCH_cluster.json", run: clusterScan,
		Gate: "shards=1 GlobalScan stays within its limit over the svc scan baseline"},
	{Name: "engines", Artifact: "BENCH_engines.json", run: engines,
		Gate: "fastsnap contention-free scan p50 is below eqaso's"},
	// Real TCP meshes for wall-clock seconds, gated against its own
	// committed artifact: runs only when named.
	{Name: "wallclock", Artifact: wallclockArtifact, run: wallclock, Explicit: true,
		Gate: "every engine is above its floor of the committed " + wallclockArtifact},
}

// Run executes the experiment and stamps the report's envelope.
func (e Experiment) Run(p Params) (*Report, error) {
	r, err := e.run(p)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", e.Name, err)
	}
	r.Env, r.Experiment, r.Quick, r.Seed = CaptureEnv(), e.Name, p.Quick, p.Seed
	return r, nil
}

// Report is the one result shape: what an experiment measured (the JSON
// fields, written to its BENCH_*.json artifact) and how to print it.
type Report struct {
	Env        Env    `json:"env"`
	Experiment string `json:"experiment"`
	Quick      bool   `json:"quick"`
	Seed       int64  `json:"seed"`
	// Params is the parameter set that ran; Points the experiment's typed
	// point slice ([]HotpathPoint, []EnginePoint, ...). Experiments that
	// only print a table leave both nil.
	Params any `json:"params,omitempty"`
	Points any `json:"points,omitempty"`
	// Derived holds the numbers computed from Points that gates and
	// tables quote (growth ratios, a baseline).
	Derived map[string]float64 `json:"derived,omitempty"`

	Table Table `json:"-"`
	// check is the acceptance criterion; nil when the experiment has none.
	check func() error
}

// Env records the runtime environment a benchmark ran in. Every
// BENCH_*.json artifact embeds one, so numbers tracked across commits can
// be separated from numbers tracked across machines.
type Env struct {
	GoVersion  string `json:"goVersion"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"numCPU"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

// CaptureEnv snapshots the current process's runtime environment.
func CaptureEnv() Env {
	return Env{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
}

// Table is a report's human-readable form: Title lines, tab-separated
// Rows aligned as one table (the first is the header), then Notes lines.
type Table struct {
	Title string
	Rows  []string
	Notes string
}

// Row appends one tab-separated row.
func (t *Table) Row(format string, args ...any) {
	t.Rows = append(t.Rows, fmt.Sprintf(format, args...))
}

// Render formats the report's table.
func (r *Report) Render() string {
	var sb strings.Builder
	sb.WriteString(r.Table.Title)
	w := tabwriter.NewWriter(&sb, 2, 0, 2, ' ', 0)
	for _, row := range r.Table.Rows {
		fmt.Fprintln(w, row)
	}
	w.Flush()
	sb.WriteString(r.Table.Notes)
	return sb.String()
}

// Check enforces the experiment's acceptance criterion, if it has one.
func (r *Report) Check() error {
	if r.check == nil {
		return nil
	}
	return r.check()
}

// WriteJSON writes the report as a BENCH_*.json artifact.
func (r *Report) WriteJSON(path string) error {
	blob, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

// Load reads a report WriteJSON wrote. params and points are pointers the
// typed "params" and "points" decode into (nil decodes generically).
func Load(path string, params, points any) (*Report, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	r := &Report{Params: params, Points: points}
	if err := json.Unmarshal(blob, r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// ratio is a/b, or 0 when b is 0 (nothing was measured): the first→last
// growth every flatness gate is stated in, a speedup, an amortization.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// atMost is the check of every ratio-gated experiment.
func atMost(what string, got, limit float64) func() error {
	return func() error {
		if got > limit {
			return fmt.Errorf("%s is %.2f×, limit %.2f×", what, got, limit)
		}
		return nil
	}
}
