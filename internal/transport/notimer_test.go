package transport_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

// timeUnits are the time package's duration constants, in nanoseconds.
var timeUnits = map[string]float64{
	"Nanosecond": 1, "Microsecond": 1e3, "Millisecond": 1e6,
	"Second": 1e9, "Minute": 60e9, "Hour": 3600e9,
}

// constNanos evaluates e as a compile-time duration in nanoseconds:
// literals, time.<Unit>, arithmetic, time.Duration(x) conversions and the
// package's own named constants. ok is false for anything it cannot fold —
// a variable, which is what a computed backoff or a per-message delay is.
func constNanos(e ast.Expr, consts map[string]ast.Expr) (ns float64, ok bool) {
	switch e := e.(type) {
	case *ast.BasicLit:
		if e.Kind != token.INT && e.Kind != token.FLOAT {
			return 0, false
		}
		ns, err := strconv.ParseFloat(strings.ReplaceAll(e.Value, "_", ""), 64)
		return ns, err == nil
	case *ast.ParenExpr:
		return constNanos(e.X, consts)
	case *ast.SelectorExpr:
		if pkg, isIdent := e.X.(*ast.Ident); isIdent && pkg.Name == "time" {
			ns, ok = timeUnits[e.Sel.Name]
		}
		return ns, ok
	case *ast.Ident:
		if def, known := consts[e.Name]; known {
			return constNanos(def, consts)
		}
	case *ast.CallExpr:
		if sel, isSel := e.Fun.(*ast.SelectorExpr); isSel && len(e.Args) == 1 {
			if pkg, isIdent := sel.X.(*ast.Ident); isIdent && pkg.Name == "time" && sel.Sel.Name == "Duration" {
				return constNanos(e.Args[0], consts)
			}
		}
	case *ast.BinaryExpr:
		x, okx := constNanos(e.X, consts)
		y, oky := constNanos(e.Y, consts)
		if !okx || !oky {
			return 0, false
		}
		switch e.Op {
		case token.MUL:
			return x * y, true
		case token.QUO:
			return x / y, y != 0
		case token.ADD:
			return x + y, true
		case token.SUB:
			return x - y, true
		}
	}
	return 0, false
}

// subMillisecondTimers parses the non-test Go files of dir (no type
// checking) and returns one "file:line: call" entry per time.NewTimer,
// After, AfterFunc, Sleep, NewTicker or Tick whose duration is a
// compile-time constant below one millisecond.
func subMillisecondTimers(t *testing.T, dir string) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, path := range paths {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatalf("parse %s: %v", path, err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		t.Fatalf("no Go files in %s", dir)
	}
	consts := map[string]ast.Expr{}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			decl, isDecl := n.(*ast.GenDecl)
			if !isDecl || decl.Tok != token.CONST {
				return true
			}
			for _, spec := range decl.Specs {
				if vs := spec.(*ast.ValueSpec); len(vs.Names) == len(vs.Values) {
					for i, name := range vs.Names {
						consts[name.Name] = vs.Values[i]
					}
				}
			}
			return false
		})
	}
	var found []string
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, isCall := n.(*ast.CallExpr)
			if !isCall || len(call.Args) == 0 {
				return true
			}
			sel, isSel := call.Fun.(*ast.SelectorExpr)
			if !isSel {
				return true
			}
			if pkg, isIdent := sel.X.(*ast.Ident); !isIdent || pkg.Name != "time" {
				return true
			}
			switch sel.Sel.Name {
			case "NewTimer", "After", "AfterFunc", "Sleep", "NewTicker", "Tick":
				if ns, ok := constNanos(call.Args[0], consts); ok && ns < float64(time.Millisecond) {
					pos := fset.Position(call.Pos())
					found = append(found, filepath.Base(pos.Filename)+":"+strconv.Itoa(pos.Line)+": time."+sel.Sel.Name)
				}
			}
			return true
		})
	}
	return found
}

// TestNoSubMillisecondTimersOnTheDataPath keeps the data path free of
// short constant timers: the Go runtime rounds the timer of an otherwise
// idle P up to a netpoll millisecond, so a "5µs" window costs a lightly
// loaded link ~1ms a message (what sendLoop's flush window did). Batching
// there comes from backlog, never from waiting. Computed durations —
// ChanNet's simulated per-message delay, the dial backoff — are variables
// and pass.
func TestNoSubMillisecondTimersOnTheDataPath(t *testing.T) {
	for _, dir := range []string{".", "../svc", "../wal", "../cluster"} {
		for _, hit := range subMillisecondTimers(t, dir) {
			t.Errorf("%s/%s with a constant duration below 1ms", dir, hit)
		}
	}
}

// TestSubMillisecondTimerLintCatches checks the lint itself on the shape
// it exists for — a named constant window handed to a timer — and on the
// shapes it must let through.
func TestSubMillisecondTimerLintCatches(t *testing.T) {
	dir := t.TempDir()
	src := `package p

import "time"

const flushWindow = 5 * time.Microsecond
const maxBackoff = 2 * time.Second

func f(d time.Duration) {
	t := time.NewTimer(flushWindow)
	t.Reset(flushWindow)
	time.Sleep(time.Duration(999) * time.Microsecond)
	<-time.After(maxBackoff)
	<-time.After(50 * time.Millisecond)
	time.Sleep(d)
	time.Sleep(min(d, maxBackoff))
}
`
	if err := os.WriteFile(filepath.Join(dir, "p.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	got := subMillisecondTimers(t, dir)
	want := []string{"p.go:9: time.NewTimer", "p.go:11: time.Sleep"}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("lint found %q, want %q", got, want)
	}
}
