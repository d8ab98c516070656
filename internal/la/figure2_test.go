package la_test

import (
	"testing"

	"mpsnap/internal/harness"
	"mpsnap/internal/la"
	"mpsnap/internal/rt"
)

// TestFigure2 asserts the paper's Figure 2 execution of the one-shot ASO
// (la.Figure2 holds the scenario and its op-by-op description): op1 and
// op4 return immediately from the EQ predicate, op6 blocks for forwarded
// values, and the three bases form a chain.
func TestFigure2(t *testing.T) {
	type scanResult struct {
		snap     []string
		inv, rsp rt.Ticks
	}
	results := make(map[string]*scanResult)
	err := la.Figure2(func(op la.Figure2Op) {
		if op.Snap != nil {
			results[op.Name] = &scanResult{snap: harness.SnapStrings(op.Snap), inv: op.Inv, rsp: op.Rsp}
		}
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}

	op1 := results["op1"]
	if op1 == nil || op1.snap[0] != "" || op1.snap[1] != "" || op1.snap[2] != "" {
		t.Fatalf("op1 must return the empty snapshot, got %+v", op1)
	}
	if op1.rsp != op1.inv {
		t.Errorf("op1 must return immediately (paper: EQ holds on empty views), took %d ticks", op1.rsp-op1.inv)
	}

	op4 := results["op4"]
	if op4 == nil || op4.snap[0] != "u" || op4.snap[1] != "" || op4.snap[2] != "v" {
		t.Fatalf("op4 must return {u,·,v} with node 2's segment ⊥, got %+v", op4)
	}
	if op4.rsp != op4.inv {
		t.Errorf("op4 must return immediately (V1[1]=V1[3]={u,v}), took %d ticks", op4.rsp-op4.inv)
	}

	op6 := results["op6"]
	if op6 == nil || op6.snap[0] != "u" || op6.snap[1] != "w" || op6.snap[2] != "v" {
		t.Fatalf("op6 must return {u,w,v}, got %+v", op6)
	}
	// op6 unblocks only once a forwarded copy of w closes the loop
	// (node 1 forwards w back at inv+~90, or node 2's forwards of u,v
	// arrive much later) — the figure's blue arrows.
	if op6.rsp-op6.inv < 80 {
		t.Errorf("op6 must block waiting for forwarded values (paper's blue arrows); took only %d ticks", op6.rsp-op6.inv)
	}

	// The three bases {} ⊆ {op2,op3} ⊆ {op2,op3,op5} are comparable —
	// "this is not by coincidence" (Section III-C).
	base := func(s []string) (b int) {
		for _, v := range s {
			if v != "" {
				b++
			}
		}
		return
	}
	if !(base(op1.snap) <= base(op4.snap) && base(op4.snap) <= base(op6.snap)) {
		t.Fatal("bases must form a chain")
	}
}
