package chaos

import (
	"math/rand"
	"sync"

	"mpsnap/internal/rt"
)

// faultNet is the wall world's fault state: it wraps each node's rt.Runtime so
// every outgoing Send/Broadcast passes through the shared partition cut,
// per-link drop probability, per-link spike hold and crash flags. The same
// Schedule that drives the simulator drives a ChanNet or TCP loopback
// cluster through this wrapper.
//
// Partitioned and spiked links hold messages (in send order) and release
// them when the cut heals or the window closes, preserving per-link FIFO
// — a partition is indistinguishable from a long delay, exactly as on
// the simulator. Dropped messages are lost for good.
type faultNet struct {
	mu     sync.Mutex
	n      int
	rng    *rand.Rand
	unders []rt.Runtime
	// crash crash-stops a node of the underlying transport so blocked
	// waits release with rt.ErrCrashed.
	crashFn func(id int)

	cutOn   bool
	cut     [][]bool
	drop    map[[2]int]float64
	spike   map[[2]int]bool
	held    []heldNetMsg
	crashed []bool
	armed   []bool
	// corr mutates messages at the wire layer inside corrupt windows (see
	// corrupter); accessed under mu.
	corr *corrupter

	drops, holds, corrupts int64
}

type heldNetMsg struct {
	src, dst int
	msg      rt.Message
}

// newFaultNet wraps the underlying per-node runtimes. crashFn must crash-stop
// node id on the backing transport.
func newFaultNet(seed int64, unders []rt.Runtime, crashFn func(id int), corr *corrupter) *faultNet {
	n := len(unders)
	nt := &faultNet{
		n:       n,
		rng:     rand.New(rand.NewSource(seed)),
		unders:  unders,
		crashFn: crashFn,
		corr:    corr,
		cut:     make([][]bool, n),
		drop:    make(map[[2]int]float64),
		spike:   make(map[[2]int]bool),
		crashed: make([]bool, n),
		armed:   make([]bool, n),
	}
	for i := range nt.cut {
		nt.cut[i] = make([]bool, n)
	}
	return nt
}

// Runtime returns node id's fault-injected runtime; install the
// algorithm node against this, not the underlying transport runtime.
func (nt *faultNet) Runtime(id int) rt.Runtime {
	return &faultyRuntime{Runtime: nt.unders[id], nt: nt}
}

// Crashed reports whether the chaos controller crashed node id.
func (nt *faultNet) Crashed(id int) bool {
	nt.mu.Lock()
	defer nt.mu.Unlock()
	return nt.crashed[id]
}

// Counters returns how many messages the loss windows discarded, how many
// were parked at a cut or spike, and how many the corrupt windows hit.
func (nt *faultNet) Counters() (drops, holds, corrupts int64) {
	nt.mu.Lock()
	defer nt.mu.Unlock()
	return nt.drops, nt.holds, nt.corrupts
}

// Corrupt sets the wire-corruption probability of the src→dst link (0
// ends the window).
func (nt *faultNet) Corrupt(src, dst int, prob float64) {
	nt.mu.Lock()
	defer nt.mu.Unlock()
	nt.corr.windows[[2]int{src, dst}] = prob
}

// Crash crash-stops node id: its sends are suppressed and the backing
// transport releases its blocked waits with rt.ErrCrashed.
func (nt *faultNet) Crash(id int) {
	nt.mu.Lock()
	if nt.crashed[id] {
		nt.mu.Unlock()
		return
	}
	nt.crashed[id] = true
	nt.mu.Unlock()
	nt.crashFn(id)
}

// ClearCrashed unmarks a crash-stopped node so its sends flow again. The
// caller must have restored the backing transport (and reinstalled the
// recovered handler) first.
func (nt *faultNet) ClearCrashed(id int) {
	nt.mu.Lock()
	defer nt.mu.Unlock()
	nt.crashed[id] = false
	nt.armed[id] = false
}

// CrashAll crash-stops every node (end-of-run abort of stuck clients).
func (nt *faultNet) CrashAll() {
	for id := 0; id < nt.n; id++ {
		nt.Crash(id)
	}
}

// ArmMidCrash makes node id's next broadcast reach only a random prefix
// of the destinations before the node crashes (mid-broadcast crash).
func (nt *faultNet) ArmMidCrash(id int) {
	nt.mu.Lock()
	nt.armed[id] = true
	nt.mu.Unlock()
}

// Partition isolates the given islands (nodes in no group form one
// implicit extra island), holding cross-cut messages until Heal.
func (nt *faultNet) Partition(groups ...[]int) {
	nt.mu.Lock()
	defer nt.mu.Unlock()
	island := make([]int, nt.n)
	for i := range island {
		island[i] = -1
	}
	for g, nodes := range groups {
		for _, id := range nodes {
			island[id] = g
		}
	}
	for s := 0; s < nt.n; s++ {
		for d := 0; d < nt.n; d++ {
			nt.cut[s][d] = s != d && island[s] != island[d]
		}
	}
	nt.cutOn = true
}

// Heal removes the partition and releases every releasable held message
// in send order.
func (nt *faultNet) Heal() {
	nt.mu.Lock()
	defer nt.mu.Unlock()
	nt.cutOn = false
	for i := range nt.cut {
		for j := range nt.cut[i] {
			nt.cut[i][j] = false
		}
	}
	nt.flushLocked()
}

// Drop sets the loss probability of the src→dst link (0 ends the window).
func (nt *faultNet) Drop(src, dst int, prob float64) {
	nt.mu.Lock()
	defer nt.mu.Unlock()
	nt.drop[[2]int{src, dst}] = prob
}

// Spike starts a delay spike on the src→dst link when extra > 0: the link
// holds its messages until the window closes (extra == 0), delaying them
// by up to the window length rather than by extra itself; closing
// releases the held messages.
func (nt *faultNet) Spike(src, dst int, extra rt.Ticks) {
	nt.mu.Lock()
	defer nt.mu.Unlock()
	if extra > 0 {
		nt.spike[[2]int{src, dst}] = true
		return
	}
	delete(nt.spike, [2]int{src, dst})
	nt.flushLocked()
}

// flushLocked re-sends every held message whose link is clear, keeping
// the rest parked. Held messages survive a sender crash (they were
// in flight), though a crash-stop backing transport may still discard
// them on the sender side.
func (nt *faultNet) flushLocked() {
	var keep []heldNetMsg
	for _, hm := range nt.held {
		if (nt.cutOn && nt.cut[hm.src][hm.dst]) || nt.spike[[2]int{hm.src, hm.dst}] {
			keep = append(keep, hm)
			continue
		}
		nt.unders[hm.src].Send(hm.dst, hm.msg)
	}
	nt.held = keep
}

func (nt *faultNet) send(src, dst int, msg rt.Message) {
	nt.mu.Lock()
	defer nt.mu.Unlock()
	nt.sendLocked(src, dst, msg)
}

func (nt *faultNet) sendLocked(src, dst int, msg rt.Message) {
	if nt.crashed[src] {
		return
	}
	if src != dst {
		key := [2]int{src, dst}
		if p := nt.drop[key]; p > 0 && nt.rng.Float64() < p {
			nt.drops++
			return
		}
		if m, drop := nt.corr.OnWire(0, src, dst, msg); drop {
			nt.corrupts++
			nt.drops++
			return
		} else if m != nil {
			nt.corrupts++
			msg = m
		}
		if (nt.cutOn && nt.cut[src][dst]) || nt.spike[key] {
			nt.holds++
			nt.held = append(nt.held, heldNetMsg{src: src, dst: dst, msg: msg})
			return
		}
	}
	nt.unders[src].Send(dst, msg)
}

func (nt *faultNet) broadcast(src int, msg rt.Message) {
	nt.mu.Lock()
	if nt.crashed[src] {
		nt.mu.Unlock()
		return
	}
	if nt.armed[src] {
		nt.armed[src] = false
		prefix := nt.rng.Intn(nt.n)
		for dst := 0; dst < prefix; dst++ {
			nt.sendLocked(src, dst, msg)
		}
		// Crash the victim without re-entering the transport from this
		// goroutine: the broadcaster holds its own node lock (transports
		// run protocol sections under it), so a synchronous crashFn
		// would self-deadlock. Marking crashed here already suppresses
		// every later send; the transport-level crash — which releases
		// the victim's blocked waits — lands as soon as the in-progress
		// critical section ends.
		nt.crashed[src] = true
		nt.mu.Unlock()
		go nt.crashFn(src)
		return
	}
	for dst := 0; dst < nt.n; dst++ {
		nt.sendLocked(src, dst, msg)
	}
	nt.mu.Unlock()
}

// faultyRuntime is a node's fault-injected view of the transport: the
// node's own runtime with its sends routed through the fault net.
type faultyRuntime struct {
	rt.Runtime
	nt *faultNet
}

func (r *faultyRuntime) Send(dst int, msg rt.Message) { r.nt.send(r.ID(), dst, msg) }
func (r *faultyRuntime) Broadcast(msg rt.Message)     { r.nt.broadcast(r.ID(), msg) }
