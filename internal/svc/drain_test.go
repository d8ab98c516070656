package svc_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"mpsnap/internal/harness"
	"mpsnap/internal/rt"
	"mpsnap/internal/svc"
)

// inDomain drives a service the way a message handler does: admission by
// AdmitUpdate/AdmitScan inside the node's atomicity domain, the outcome
// delivered to the then hook.
type inDomain struct {
	s *svc.Service
	r rt.Runtime
}

func (d inDomain) wait(admit func(then func([][]byte, error)) error) (snap [][]byte, err error) {
	calls := 0
	var admitErr error
	d.r.Atomic(func() {
		admitErr = admit(func(sn [][]byte, e error) { snap, err, calls = sn, e, calls+1 })
	})
	if admitErr != nil {
		return nil, admitErr
	}
	if werr := rt.WaitUntil(d.r, "test: then", func() bool { return calls > 0 }); werr != nil {
		return nil, werr
	}
	if calls != 1 {
		panic(fmt.Sprintf("then ran %d times", calls))
	}
	return snap, err
}

func (d inDomain) Update(p []byte) error {
	_, err := d.wait(func(then func([][]byte, error)) error { return d.s.AdmitUpdate(p, then) })
	return err
}

func (d inDomain) Scan() ([][]byte, error) {
	return d.wait(func(then func([][]byte, error)) error { _, err := d.s.AdmitScan(then); return err })
}

// opLog records a service's observer events.
type opLog struct{ events []string }

func (l *opLog) OnMsg(rt.MsgEvent) {}
func (l *opLog) OnOp(e rt.OpEvent) { l.events = append(l.events, fmt.Sprintf("%+v", e)) }

// TestDrainTakesEverythingQueued: the worker takes the whole queue, however
// deep. One update occupies the worker; k more are admitted while it is
// inside that protocol op and must commit as ONE protocol UPDATE. The inert
// AdaptiveWindow field must change nothing — neither the counters nor the
// recorded history (at the parent it capped the second drain at 16). Nor may
// the door a request came in by: the same sequence admitted from inside the
// atomicity domain (AdmitUpdate/AdmitScan, as a message handler does) yields
// the same counters, history and svc.update/svc.scan observer events.
func TestDrainTakesEverythingQueued(t *testing.T) {
	const n, f, k = 4, 1, 200
	run := func(opts svc.Options, handlerSide bool) (svc.Stats, string, []string) {
		log := &opLog{}
		opts.Observer = log
		fx := build(n, f, 31, "eqaso", opts)
		if handlerSide {
			fx.front = func(node int) harness.Object { return inDomain{fx.svcs[node], fx.c.W.Runtime(node)} }
		}
		update := func(o *harness.OpRunner) {
			if _, err := o.Update(); err != nil {
				t.Errorf("update: %v", err)
			}
		}
		fx.client(0, update) // admitted at tick 0: the worker is busy from then on
		for c := 0; c < k; c++ {
			fx.client(0, func(o *harness.OpRunner) {
				// One tick in, no message can have made a round trip yet.
				if err := o.P.Sleep(1); err != nil {
					t.Errorf("sleep: %v", err)
					return
				}
				update(o)
				if c%50 == 0 {
					if _, err := o.Scan(); err != nil {
						t.Errorf("scan: %v", err)
					}
				}
			})
		}
		h, err := fx.c.MustLinearizable()
		if err != nil {
			t.Fatal(err)
		}
		return fx.svcs[0].Stats(), fmt.Sprint(h.Ops), log.events
	}
	st, hist, events := run(svc.Options{}, false)
	if st.Updates != k+1 || st.ProtoUpdates != 2 || st.MaxBatch != k || st.Scans != k/50 {
		t.Errorf("stats = %+v, want Updates=%d ProtoUpdates=2 MaxBatch=%d Scans=%d", st, k+1, k, k/50)
	}
	if want := 2 * (k + 1 + k/50); len(events) != want {
		t.Errorf("%d observer events, want %d (a start and an end per request)", len(events), want)
	}
	st2, hist2, _ := run(svc.Options{AdaptiveWindow: true}, false)
	if st2 != st {
		t.Errorf("AdaptiveWindow changed the stats: %+v, want %+v", st2, st)
	}
	if hist2 != hist {
		t.Error("AdaptiveWindow changed the recorded history")
	}
	st3, hist3, events3 := run(svc.Options{}, true)
	if st3 != st {
		t.Errorf("in-domain admission changed the stats: %+v, want %+v", st3, st)
	}
	if hist3 != hist {
		t.Error("in-domain admission changed the recorded history")
	}
	if !slices.Equal(events3, events) {
		t.Error("in-domain admission changed the observer events")
	}
}

// inertFields are the names kept only because the frozen benchmark/ module
// compiles against them: four svc fields svc neither reads nor writes,
// cluster's (*Node).ServeRouter, a method with nothing left to do, and
// cluster.StatusStaleMap, a status no node sends since the shard map is
// fixed.
var inertFields = []string{"AdaptiveWindow", "WindowGrows", "WindowShrinks", "ServeRouter", "DirectWait", "StatusStaleMap"}

// TestInertFieldsArePinnedByBenchmark keeps the inert names honest in both
// directions: each must still be named by benchmark/ (else it is dead and
// should go), and no other non-test file may set, read, call or send one.
// It parses the repository (no type checking) for every identifier with an
// inert name, skipping the ones that declare it (a function, field,
// parameter or constant name), so the declarations themselves pass.
func TestInertFieldsArePinnedByBenchmark(t *testing.T) {
	const root = "../.."
	pinned := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		rel, _ := filepath.Rel(root, path)
		inBenchmark := strings.HasPrefix(filepath.ToSlash(rel), "benchmark/")
		if !strings.HasSuffix(path, ".go") || (!inBenchmark && strings.HasSuffix(path, "_test.go")) {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		decl := map[*ast.Ident]bool{}
		ast.Inspect(file, func(node ast.Node) bool {
			var names []*ast.Ident
			switch node := node.(type) {
			case *ast.FuncDecl:
				names = []*ast.Ident{node.Name}
			case *ast.Field:
				names = node.Names
			case *ast.ValueSpec:
				names = node.Names
			}
			for _, id := range names {
				decl[id] = true
			}
			id, ok := node.(*ast.Ident)
			if !ok || decl[id] || !slices.Contains(inertFields, id.Name) {
				return true
			}
			if inBenchmark {
				pinned[id.Name] = true
			} else {
				t.Errorf("%s: %s is inert but used outside benchmark/", fset.Position(id.Pos()), id.Name)
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range inertFields {
		if !pinned[name] {
			t.Errorf("%s: nothing pins this name any more: delete it", name)
		}
	}
}
