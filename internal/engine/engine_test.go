package engine_test

import (
	"errors"
	"strings"
	"testing"

	"mpsnap/internal/engine"
	_ "mpsnap/internal/engine/all"
	"mpsnap/internal/harness"
	"mpsnap/internal/rt"
	"mpsnap/internal/sim"
)

// want is the full expected registry; keeping it literal means a new
// engine must be added here (and so get smoke coverage) to pass.
var wantNames = []string{
	"acr", "byzaso", "delporte", "eqaso", "fastsnap",
	"laaso", "sso", "sso-byz", "stacked", "storecollect",
}

func TestRegistryNames(t *testing.T) {
	got := engine.Names()
	if len(got) != len(wantNames) {
		t.Fatalf("Names() = %v, want %v", got, wantNames)
	}
	for i, n := range wantNames {
		if got[i] != n {
			t.Fatalf("Names()[%d] = %q, want %q (full: %v)", i, got[i], n, got)
		}
	}
	for _, n := range strings.Split(engine.FlagHelp(), "|") {
		in := engine.MustLookup(n)
		if in.Baseline {
			t.Errorf("FlagHelp() includes baseline %q", n)
		}
	}
	if help := engine.FlagHelp(); !strings.Contains(help, "eqaso") || !strings.Contains(help, "fastsnap") {
		t.Errorf("FlagHelp() = %q, want it to mention eqaso and fastsnap", help)
	}
}

// TestEngineSmoke constructs every registered engine on a small simulated
// cluster and drives one update + scan through it.
func TestEngineSmoke(t *testing.T) {
	for _, name := range engine.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			in, err := engine.Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			n, f := 4, 1 // satisfies n > 3f, so valid for every engine
			if err := in.Validate(n, f); err != nil {
				t.Fatalf("Validate(%d, %d): %v", n, f, err)
			}
			c := harness.Build(sim.Config{N: n, F: f, Seed: 11}, func(r rt.Runtime) (rt.Handler, harness.Object) {
				e := in.New(r)
				return e, e
			})
			c.Client(0, func(o *harness.OpRunner) {
				if err := o.UpdateValue("smoke"); err != nil {
					t.Errorf("update: %v", err)
					return
				}
				snap, err := o.Scan()
				if err != nil {
					t.Errorf("scan: %v", err)
					return
				}
				if snap[0] != "smoke" {
					t.Errorf("snap = %v, want segment 0 = smoke", snap)
				}
			})
			h, err := c.Run()
			if err != nil {
				t.Fatal(err)
			}
			if in.Sequential {
				if rep := h.CheckSequentiallyConsistent(); !rep.OK {
					t.Fatalf("history not sequentially consistent: %v", rep.Violations)
				}
			} else if rep := h.CheckLinearizable(); !rep.OK {
				t.Fatalf("history not linearizable: %v", rep.Violations)
			}
		})
	}
}

func TestUnknownEngine(t *testing.T) {
	_, err := engine.Lookup("no-such-engine")
	if err == nil {
		t.Fatal("Lookup of unknown engine succeeded")
	}
	var ue *engine.UnknownError
	if !errors.As(err, &ue) {
		t.Fatalf("Lookup error %T is not *engine.UnknownError", err)
	}
	if ue.Name != "no-such-engine" {
		t.Errorf("UnknownError.Name = %q", ue.Name)
	}
	if !strings.Contains(err.Error(), "eqaso") {
		t.Errorf("error %q should list registered engines", err)
	}
	if _, err := engine.New("no-such-engine", nil); err == nil {
		t.Fatal("New of unknown engine succeeded")
	}
}

func TestValidate(t *testing.T) {
	cases := []struct {
		engine string
		n, f   int
		ok     bool
	}{
		{"eqaso", 3, 1, true},
		{"eqaso", 4, 2, false}, // needs n > 2f
		{"fastsnap", 5, 2, true},
		{"acr", 2, 1, false},
		{"byzaso", 4, 1, true},
		{"byzaso", 6, 2, false}, // needs n > 3f
		{"sso-byz", 7, 2, true},
	}
	for _, tc := range cases {
		in := engine.MustLookup(tc.engine)
		err := in.Validate(tc.n, tc.f)
		if (err == nil) != tc.ok {
			t.Errorf("%s.Validate(%d, %d) = %v, want ok=%v", tc.engine, tc.n, tc.f, err, tc.ok)
		}
	}
}

func TestCapabilities(t *testing.T) {
	for _, tc := range []struct {
		name    string
		durable bool
	}{
		{"eqaso", true}, {"sso", true}, {"byzaso", false},
		{"acr", false}, {"fastsnap", false},
	} {
		if got := engine.MustLookup(tc.name).Durable(); got != tc.durable {
			t.Errorf("%s.Durable() = %v, want %v", tc.name, got, tc.durable)
		}
	}
	// Optional surfaces the layers above probe for: without Batcher the svc
	// layer silently stops coalescing updates, without Observable an
	// engine's ops vanish from traces and latency histograms.
	for _, name := range []string{"eqaso", "acr", "fastsnap"} {
		e := engine.MustLookup(name).New(sim.New(sim.Config{N: 3, F: 1}).Runtime(0))
		if _, ok := e.(engine.Batcher); !ok {
			t.Errorf("%s does not implement engine.Batcher", name)
		}
		if _, ok := e.(engine.Observable); !ok {
			t.Errorf("%s does not implement engine.Observable", name)
		}
	}
	for _, tc := range []struct {
		name string
		n    int
		maxF int
	}{
		{"eqaso", 3, 1}, {"eqaso", 4, 1}, {"eqaso", 5, 2}, {"byzaso", 4, 1}, {"byzaso", 6, 1}, {"byzaso", 7, 2},
	} {
		if got := engine.MustLookup(tc.name).MaxF(tc.n); got != tc.maxF {
			t.Errorf("%s.MaxF(%d) = %d, want %d", tc.name, tc.n, got, tc.maxF)
		}
	}
}
