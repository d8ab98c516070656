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
	"mpsnap/internal/svc"
)

// TestDrainTakesEverythingQueued: the worker takes the whole queue, however
// deep. One update occupies the worker; k more are admitted while it is
// inside that protocol op and must commit as ONE protocol UPDATE. The inert
// AdaptiveWindow field must change nothing — neither the counters nor the
// recorded history (at the parent it capped the second drain at 16).
func TestDrainTakesEverythingQueued(t *testing.T) {
	const n, f, k = 4, 1, 200
	run := func(opts svc.Options) (svc.Stats, string) {
		fx := build(n, f, 31, "eqaso", opts)
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
			})
		}
		h, err := fx.c.MustLinearizable()
		if err != nil {
			t.Fatal(err)
		}
		return fx.svcs[0].Stats(), fmt.Sprint(h.Ops)
	}
	st, hist := run(svc.Options{})
	if st.Updates != k+1 || st.ProtoUpdates != 2 || st.MaxBatch != k {
		t.Errorf("stats = %+v, want Updates=%d ProtoUpdates=2 MaxBatch=%d", st, k+1, k)
	}
	st2, hist2 := run(svc.Options{AdaptiveWindow: true})
	if st2 != st {
		t.Errorf("AdaptiveWindow changed the stats: %+v, want %+v", st2, st)
	}
	if hist2 != hist {
		t.Error("AdaptiveWindow changed the recorded history")
	}
}

// inertFields are the svc names kept only because the frozen benchmark/
// module compiles against them; svc neither reads nor writes them.
var inertFields = []string{"AdaptiveWindow", "WindowGrows", "WindowShrinks"}

// TestInertFieldsArePinnedByBenchmark keeps the inert fields honest in both
// directions: each must still be named by benchmark/ (else it is dead and
// should go), and no other non-test file may set or read one. It parses
// the repository (no type checking) for selectors x.<name> and
// composite-literal keys <name>: — a struct field declaration is neither,
// so svc's own declarations pass.
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
		ast.Inspect(file, func(node ast.Node) bool {
			var id *ast.Ident
			switch node := node.(type) {
			case *ast.SelectorExpr:
				id = node.Sel
			case *ast.KeyValueExpr:
				id, _ = node.Key.(*ast.Ident)
			}
			if id == nil || !slices.Contains(inertFields, id.Name) {
				return true
			}
			if inBenchmark {
				pinned[id.Name] = true
			} else {
				t.Errorf("%s: svc %s is inert but used outside benchmark/", fset.Position(id.Pos()), id.Name)
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
			t.Errorf("svc %s: nothing pins this field any more: delete it", name)
		}
	}
}
