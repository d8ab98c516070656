package chaos

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"mpsnap/internal/obs"
	"mpsnap/internal/rt"
)

// TestTraceDumpOnForcedFailure: with tracing armed and the checker verdict
// forced to fail, RunSim dumps a JSONL trace whose path encodes alg, seed,
// and schedule hash, and whose events cover both op lifecycles and
// injected faults.
func TestTraceDumpOnForcedFailure(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		N: 5, F: 2, Seed: 42, Duration: 60 * rt.TicksPerD,
		TraceDir: dir, forceCheckFail: true,
	}
	res, err := Run(cfg, "sim")
	if err != nil {
		t.Fatal(err)
	}
	if res.Check.OK {
		t.Fatal("forceCheckFail did not force a failing verdict")
	}
	if res.TracePath == "" {
		t.Fatal("failing run with TraceDir set produced no trace dump")
	}
	want := filepath.Join(dir, "chaos-eqaso-seed42-"+res.Schedule.Hash()+".jsonl")
	if res.TracePath != want {
		t.Fatalf("trace path: got %q want %q", res.TracePath, want)
	}
	data, err := os.ReadFile(res.TracePath)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(data), []byte("\n"))
	if len(lines) == 0 {
		t.Fatal("empty trace dump")
	}
	cats := map[string]int{}
	for _, ln := range lines {
		var ev obs.Event
		if err := json.Unmarshal(ln, &ev); err != nil {
			t.Fatalf("bad JSONL line %q: %v", ln, err)
		}
		cats[ev.Cat]++
	}
	if cats[obs.CatOp] == 0 {
		t.Fatalf("trace has no op events (cats: %v)", cats)
	}
	if cats[obs.CatSys] == 0 {
		t.Fatalf("trace has no fault-injection events (cats: %v)", cats)
	}
	if cats[obs.CatMsg] != 0 {
		t.Fatalf("chaos trace recorded %d raw message events; should record none", cats[obs.CatMsg])
	}
}

// TestTraceDeterministic: the trace dump is a deterministic function of
// the seed — two runs write byte-identical files.
func TestTraceDeterministic(t *testing.T) {
	run := func(dir string) []byte {
		res, err := Run(Config{
			N: 5, F: 2, Seed: 7, Duration: 40 * rt.TicksPerD,
			TraceDir: dir, TraceAlways: true, Service: true,
		}, "sim")
		if err != nil {
			t.Fatal(err)
		}
		if !res.Check.OK {
			t.Fatalf("check failed: %v", res.Check.Violations)
		}
		if res.TracePath == "" {
			t.Fatal("TraceAlways run produced no dump")
		}
		data, err := os.ReadFile(res.TracePath)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	b1 := run(t.TempDir())
	b2 := run(t.TempDir())
	if !bytes.Equal(b1, b2) {
		t.Fatalf("same seed produced different traces (%d vs %d bytes)", len(b1), len(b2))
	}
	if len(b1) == 0 {
		t.Fatal("empty trace")
	}
	// Service runs route ops through svc: its client-visible op events
	// must be present alongside the protocol's own.
	if !bytes.Contains(b1, []byte(`"op":"svc.`)) {
		t.Fatal("service-mode trace has no svc.* op events")
	}
}

// TestTracePassingRunNoDump: without TraceAlways, a passing run leaves no
// file behind.
func TestTracePassingRunNoDump(t *testing.T) {
	dir := t.TempDir()
	res, err := Run(Config{
		N: 5, F: 2, Seed: 42, Duration: 40 * rt.TicksPerD, TraceDir: dir,
	}, "sim")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Check.OK {
		t.Fatalf("check failed: %v", res.Check.Violations)
	}
	if res.TracePath != "" {
		t.Fatalf("passing run dumped a trace: %s", res.TracePath)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("trace dir not empty after passing run: %v", entries)
	}
}
