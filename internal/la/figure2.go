package la

import (
	"fmt"

	"mpsnap/internal/rt"
	"mpsnap/internal/sim"
)

// Figure2Op is one completed operation of the Figure 2 replay.
type Figure2Op struct {
	// Name is the paper's label, "op1".."op6"; Node is 0-based (the
	// paper's node Node+1).
	Name string
	Node int
	// Value is the written value of an UPDATE; Snap the returned snapshot
	// of a SCAN (nil for an UPDATE).
	Value string
	Snap  [][]byte
	// Inv and Rsp are the invocation and response times.
	Inv, Rsp rt.Ticks
}

// Figure2 replays the paper's Figure 2 execution of the one-shot ASO on
// the simulator, calling observe as each operation completes. Paper node
// numbering is 1-based; here node 1→0, node 2→1, node 3→2.
//
//	op1: SCAN by node 3  → returns {} immediately (all views empty).
//	op2: UPDATE(u) by node 1.
//	op3: UPDATE(v) by node 3.
//	op4: SCAN by node 1  → returns {u,v} immediately
//	     (V1[1] = V1[3] = {u,v}, V1[2] = {}).
//	op5: UPDATE(w) by node 2.
//	op6: SCAN by node 3  → blocked: V3[1]={u,v}, V3[2]={w}, V3[3]={u,v,w};
//	     it must wait for forwarded values from node 1 or node 2 (the
//	     figure's blue arrows), and then returns {u,v,w}.
//
// The slow links isolate node 2 (paper numbering): everything it receives
// is slow, as is node 1's inbound link from it.
func Figure2(observe func(Figure2Op)) error {
	delays := sim.SlowLinks{
		Slow: map[[2]int]bool{
			{0, 1}: true, // node1 → node2 (paper) slow
			{2, 1}: true, // node3 → node2 slow
			{1, 0}: true, // node2 → node1 slow
		},
		SlowDelay: 800,
		FastDelay: 50,
	}
	w := sim.New(sim.Config{N: 3, F: 1, Seed: 1, Delay: delays})
	objs := make([]*OneShot, 3)
	for i := range objs {
		objs[i] = NewOneShot(w.Runtime(i))
		w.SetHandler(i, objs[i])
	}
	var opErr error
	done := func(op Figure2Op, p *sim.Proc, err error) {
		if err != nil {
			if opErr == nil {
				opErr = fmt.Errorf("figure2 %s: %w", op.Name, err)
			}
			return
		}
		op.Rsp = p.Now()
		observe(op)
	}
	scan := func(p *sim.Proc, node int, name string) {
		op := Figure2Op{Name: name, Node: node, Inv: p.Now()}
		var err error
		op.Snap, err = objs[node].Scan()
		done(op, p, err)
	}
	update := func(p *sim.Proc, node int, val, name string) {
		op := Figure2Op{Name: name, Node: node, Value: val, Inv: p.Now()}
		done(op, p, objs[node].Update([]byte(val)))
	}
	// Node 1: op2 = UPDATE(u) at t≈0, then op4 = SCAN at t=150.
	w.GoNode("node1", 0, func(p *sim.Proc) {
		update(p, 0, "u", "op2")
		_ = p.Sleep(150 - p.Now())
		scan(p, 0, "op4")
	})
	// Node 2: op5 = UPDATE(w) at t=200.
	w.GoNode("node2", 1, func(p *sim.Proc) {
		_ = p.Sleep(200)
		update(p, 1, "w", "op5")
	})
	// Node 3: op1 = SCAN at t=0, op3 = UPDATE(v), op6 = SCAN at t=260 —
	// right after w reached it (t=250) and before any forwarded copy of w
	// can come back, so the scan observes the blocked state of the figure.
	w.GoNode("node3", 2, func(p *sim.Proc) {
		scan(p, 2, "op1")
		update(p, 2, "v", "op3")
		_ = p.Sleep(260 - p.Now())
		scan(p, 2, "op6")
	})
	if err := w.Run(); err != nil {
		return err
	}
	return opErr
}
