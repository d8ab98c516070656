package chaos

import (
	"mpsnap/internal/rt"
	"mpsnap/internal/sim"
)

// faultNet is the wall world's fault injector: it wraps each node's
// rt.Runtime so every send and broadcast consults the fault objects the
// simulator uses too (loss and corruption windows, armed mid-broadcast
// crashes). It keeps no crash flag (the transport's is the one) and no
// message of its own: a link the partition cuts or a spike window covers
// is held on the transport itself, so what is sent on it waits there in
// send order and is delivered when the cut heals or the window closes —
// even if its sender crashed meanwhile, since it was already sent. A
// partition is a long delay, as on the simulator; a spike holds its link
// for the whole window. Dropped messages are lost for good.
type faultNet struct {
	*faults // mu also guards every field below
	unders  []rt.Runtime
	all     []int // every node, the destinations of a broadcast
	// crash crash-stops a node of the underlying transport (also from
	// inside its own critical section); hold holds or releases a link.
	crash func(id int)
	hold  func(src, dst int, on bool)

	cut   [][]bool // the partition's cut, nil while healed
	tally FaultTally
}

// newFaultNet wraps the underlying per-node runtimes. crash must
// crash-stop node id on the backing transport, hold hold or release its
// src→dst link.
func newFaultNet(f *faults, unders []rt.Runtime, crash func(id int), hold func(src, dst int, on bool)) *faultNet {
	nt := &faultNet{faults: f, unders: unders, crash: crash, hold: hold}
	for id := range unders {
		nt.all = append(nt.all, id)
	}
	f.spiked = nt.relink
	return nt
}

// Runtime returns node id's fault-injected runtime; install the
// algorithm node against this, not the underlying transport runtime.
func (nt *faultNet) Runtime(id int) rt.Runtime {
	return &faultyRuntime{Runtime: nt.unders[id], nt: nt}
}

// Tally implements world.
func (nt *faultNet) Tally() FaultTally {
	nt.mu.Lock()
	defer nt.mu.Unlock()
	return nt.tally
}

// Crash crash-stops node id on the transport and disarms it.
func (nt *faultNet) Crash(id int) {
	nt.disarm(id)
	nt.crash(id)
}

// Partition isolates the given islands (nodes in no group form one
// implicit extra island) by holding every link the cut severs; a link it
// no longer severs is released.
func (nt *faultNet) Partition(groups ...[]int) {
	nt.mu.Lock()
	defer nt.mu.Unlock()
	nt.cut = sim.Cut(len(nt.all), groups...)
	nt.relinkAll()
}

// Heal removes the partition, releasing every link no spike holds.
func (nt *faultNet) Heal() {
	nt.mu.Lock()
	defer nt.mu.Unlock()
	nt.cut = nil
	nt.relinkAll()
}

// held reports whether the src→dst link is cut or spiked. Must hold mu.
func (nt *faultNet) held(src, dst int) bool {
	return (nt.cut != nil && nt.cut[src][dst]) || nt.link.extra[[2]int{src, dst}] > 0
}

// relink holds the src→dst link exactly while it is cut or spiked. Must
// hold mu.
func (nt *faultNet) relink(src, dst int) { nt.hold(src, dst, nt.held(src, dst)) }

func (nt *faultNet) relinkAll() {
	for _, src := range nt.all {
		for _, dst := range nt.all {
			if src != dst {
				nt.relink(src, dst)
			}
		}
	}
}

func (nt *faultNet) send(src, dst int, msg rt.Message) {
	nt.mu.Lock()
	defer nt.mu.Unlock()
	nt.sendLocked(src, dst, msg)
}

func (nt *faultNet) sendLocked(src, dst int, msg rt.Message) {
	if nt.unders[src].Crashed() {
		return
	}
	if src != dst {
		now := nt.unders[src].Now()
		if nt.link.OnSend(now, src, dst, msg.Kind()).Drop {
			nt.tally.Dropped++
			return
		}
		if m, drop := nt.corr.OnWire(now, src, dst, msg); drop {
			nt.tally.Corrupt++
			nt.tally.Dropped++
			return
		} else if m != nil {
			nt.tally.Corrupt++
			msg = m
		}
		if nt.held(src, dst) {
			nt.tally.Held++
		}
	}
	nt.unders[src].Send(dst, msg)
}

// broadcast sends msg to every node, or, if src is armed to crash
// mid-broadcast, to a prefix and then crashes src in the sending section.
func (nt *faultNet) broadcast(src int, msg rt.Message) {
	nt.mu.Lock()
	defer nt.mu.Unlock()
	if nt.unders[src].Crashed() {
		return
	}
	dsts, crash := nt.mid.OnBroadcast(nt.unders[src].Now(), src, msg, nt.all)
	for _, dst := range dsts {
		nt.sendLocked(src, dst, msg)
	}
	if crash {
		nt.crash(src)
	}
}

// faultyRuntime is a node's fault-injected view of the transport: the
// node's own runtime with its sends routed through the fault net.
type faultyRuntime struct {
	rt.Runtime
	nt *faultNet
}

func (r *faultyRuntime) Send(dst int, msg rt.Message) { r.nt.send(r.ID(), dst, msg) }
func (r *faultyRuntime) Broadcast(msg rt.Message)     { r.nt.broadcast(r.ID(), msg) }
