package sim

import (
	"fmt"

	"mpsnap/internal/rt"
)

// LinkFate is a LinkAdversary's verdict on one message.
type LinkFate struct {
	// Drop silently discards the message. This violates the reliable-
	// channel model of Section II-A: quorum algorithms stay safe (a lost
	// message is indistinguishable from one delayed forever) but may lose
	// liveness, so drop faults belong in bounded chaos runs, not in
	// model-conforming executions.
	Drop bool
	// Extra delays the message by this many additional ticks beyond the
	// [1, D] model bound, modelling asynchrony spikes. Per-channel FIFO
	// is still enforced.
	Extra rt.Ticks
}

// LinkAdversary intercepts every point-to-point send between distinct
// nodes (after the broadcast Adversary, and before partition buffering),
// deciding the message's fate on the wire. Implementations must be
// deterministic functions of the send sequence for runs to replay.
type LinkAdversary interface {
	OnSend(now rt.Ticks, src, dst int, kind string) LinkFate
}

// heldMsg is a message parked at a partition cut, waiting for its link to
// be released.
type heldMsg struct {
	src, dst int
	msg      rt.Message
	kind     string
}

// Cut returns the n×n partition cut that isolates the given islands:
// cut[src][dst] is set when src and dst lie in different islands. Nodes
// not listed in any group form one implicit additional island, and a
// node's link to itself is never cut.
func Cut(n int, groups ...[]int) [][]bool {
	island := make([]int, n)
	for i := range island {
		island[i] = -1 // implicit extra group
	}
	for g, nodes := range groups {
		for _, id := range nodes {
			island[id] = g
		}
	}
	cut := make([][]bool, n)
	for s := range cut {
		cut[s] = make([]bool, n)
		for d := range cut[s] {
			cut[s][d] = island[s] != island[d]
		}
	}
	return cut
}

// Partition splits the nodes into isolated islands (see Cut): messages
// between nodes of different groups are held at the cut and delivered
// only after Heal (with a fresh delay).
//
// Holding (rather than dropping) preserves the reliable-channel model:
// a partition is indistinguishable from a long asynchronous delay, so
// algorithm guarantees that hold under asynchrony must survive any
// partition/heal schedule.
//
// Calling Partition while a partition is active replaces the cut: held
// messages whose link the new cut no longer severs are sent on at once,
// in send order, ahead of any later traffic on their link; the rest stay
// held until Heal.
func (w *World) Partition(groups ...[]int) {
	w.cut = Cut(w.cfg.N, groups...)
	w.partitioned = true
	if w.tracer != nil {
		w.tracer(TraceEvent{T: w.now, Kind: "partition", Src: -1, Dst: -1})
	}
	w.release()
}

// Heal removes the partition and releases every held message, in send
// order, with fresh delays (FIFO per channel is preserved via the usual
// no-overtake rule).
func (w *World) Heal() {
	if !w.partitioned {
		return
	}
	w.partitioned = false
	if w.tracer != nil {
		w.tracer(TraceEvent{T: w.now, Kind: "heal", Src: -1, Dst: -1})
	}
	w.release()
}

// release dispatches, in send order, every held message whose link is no
// longer cut, and keeps the rest held.
func (w *World) release() {
	held := w.held
	w.held = nil
	for _, hm := range held {
		if w.partitioned && w.cut[hm.src][hm.dst] {
			w.held = append(w.held, hm)
			continue
		}
		w.post(hm.src, hm.dst, hm.msg, hm.kind, 0)
	}
}

// BlockedWaiter describes one process blocked in WaitUntilThen.
type BlockedWaiter struct {
	// Proc is the blocked process's name.
	Proc string
	// Node is the node the wait is scoped to (-1 for global waits).
	Node int
	// Label is the predicate label passed to WaitUntilThen.
	Label string
	// Since is the virtual time the wait started.
	Since rt.Ticks
}

func (b BlockedWaiter) String() string {
	return fmt.Sprintf("proc %q node=%d wait=%q since t=%d", b.Proc, b.Node, b.Label, b.Since)
}

// Blocked returns the processes currently blocked in WaitUntilThen, in
// registration order. Chaos harnesses use it to diagnose (and unblock)
// stuck operations; it is also what deadlock reports are built from.
func (w *World) Blocked() []BlockedWaiter {
	out := make([]BlockedWaiter, 0, len(w.waiters))
	for _, wt := range w.waiters {
		out = append(out, BlockedWaiter{Proc: wt.p.name, Node: wt.node, Label: wt.label, Since: wt.since})
	}
	return out
}
