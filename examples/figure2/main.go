// Figure 2 of the paper, replayed: the one-shot ASO execution where op1
// and op4 return immediately from the EQ predicate while op6 must block
// for forwarded values (the figure's blue arrows). Node numbering follows
// the paper (1-based); the scenario and its scripted link delays are
// la.Figure2.
//
// Run with: go run ./examples/figure2
package main

import (
	"fmt"
	"log"

	"mpsnap/internal/la"
)

func main() {
	err := la.Figure2(func(op la.Figure2Op) {
		if op.Snap == nil {
			fmt.Printf("%s: UPDATE(%s) by node %d  [t=%4d .. %4d]\n", op.Name, op.Value, op.Node+1, op.Inv, op.Rsp)
			return
		}
		var view []string
		for _, seg := range op.Snap {
			if seg != nil {
				view = append(view, string(seg))
			}
		}
		fmt.Printf("%s: SCAN by node %d  [t=%4d .. %4d]  returned %v (waited %d ticks)\n",
			op.Name, op.Node+1, op.Inv, op.Rsp, view, op.Rsp-op.Inv)
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nas in the paper: op1 returns {} and op4 returns {u,v} immediately,")
	fmt.Println("while op6 blocks until a forwarded value (blue arrow) arrives, then")
	fmt.Println("returns {u,v,w} — the three bases form the chain {} ⊆ {u,v} ⊆ {u,v,w}.")
}
