// Package chaos is a randomized fault-schedule harness for the snapshot
// objects: it drives concurrent UPDATE/SCAN clients against EQ-ASO,
// Byz-ASO, or SSO while injecting a seeded schedule of node crashes
// (including mid-broadcast), transient network partitions with heal, and
// per-link message-loss / delay-spike windows, then records every
// operation with internal/history and checks the resulting history
// against the appropriate consistency condition. With Config.Shards the
// same run drives the sharded store (internal/cluster) instead, and the
// check is the cut validator's on cross-shard cuts.
//
// The same Schedule runs on two backends: the deterministic virtual-time
// simulator (internal/sim — byte-identical histories per seed) and the
// real transports (internal/transport — ChanNet or a TCP loopback
// cluster), where one D of virtual time maps to DReal of wall clock.
package chaos

import (
	"fmt"
	"math/rand"
	"sort"

	"mpsnap/internal/rt"
)

// Mix sets how many faults of each kind a schedule contains.
type Mix struct {
	// Crashes is the number of crash events; clamped to F at generation
	// (every other crash strikes mid-broadcast, truncating the victim's
	// last broadcast to a prefix of the destinations — the paper's
	// failure-chain mechanism).
	Crashes int `json:"crashes"`
	// Partitions is the number of partition→heal episodes. Each episode
	// isolates a random island of at most F nodes (so a quorum survives
	// on the majority side) and always heals before the run ends.
	Partitions int `json:"partitions"`
	// DropWindows is the number of per-link message-loss windows.
	DropWindows int `json:"dropWindows"`
	// DropProb is the loss probability inside a drop window (default
	// 0.25). Loss violates the reliable-channel model: completed
	// operations must still linearize, but stuck ones are crashed at the
	// end of the run and recorded as pending.
	DropProb float64 `json:"dropProb"`
	// SpikeWindows is the number of per-link delay-spike windows.
	SpikeWindows int `json:"spikeWindows"`
	// SpikeExtraD is the extra per-message delay inside a spike window,
	// in units of D (default 3).
	SpikeExtraD float64 `json:"spikeExtraD"`
	// CorruptWindows is the number of per-link wire-corruption windows:
	// inside a window, each message on the link is (with CorruptProb)
	// framed through internal/wire and mutated — a flipped bit, a
	// truncation, or an oversized length prefix. Mutants that no longer
	// decode are dropped (the receiver would close the connection);
	// mutants that still decode are delivered only to the Byzantine
	// algorithm, from sources drawn from the ≤ f fault budget (crash
	// victims first). Requires f > 0; ignored otherwise.
	CorruptWindows int `json:"corruptWindows,omitempty"`
	// CorruptProb is the per-message corruption probability inside a
	// corrupt window (default 0.2).
	CorruptProb float64 `json:"corruptProb,omitempty"`
	// Restarts is how many crash victims later recover: each replays its
	// write-ahead log, rejoins via the checkpoint-delta path, and resumes
	// the workload as a fresh client. Clamped to the number of crashes.
	// Requires a WAL-capable algorithm (eqaso or sso) without the Service
	// layer; rejected otherwise.
	Restarts int `json:"restarts,omitempty"`
	// RestartDelayD is the crash-to-recovery delay in units of D (default
	// 5, minimum 3 so the mid-broadcast fallback crash at +2D always
	// precedes the restart).
	RestartDelayD float64 `json:"restartDelayD,omitempty"`
}

// DefaultMix is the standard chaotic diet: one crash, two partition
// episodes, two loss windows, two delay spikes.
func DefaultMix() Mix {
	return Mix{Crashes: 1, Partitions: 2, DropWindows: 2, DropProb: 0.25, SpikeWindows: 2, SpikeExtraD: 3}
}

// EventKind names a fault event.
type EventKind string

// Fault event kinds.
const (
	EvCrash      EventKind = "crash"
	EvPartition  EventKind = "partition"
	EvHeal       EventKind = "heal"
	EvDropOn     EventKind = "drop-on"
	EvDropOff    EventKind = "drop-off"
	EvSpikeOn    EventKind = "spike-on"
	EvSpikeOff   EventKind = "spike-off"
	EvCorruptOn  EventKind = "corrupt-on"
	EvCorruptOff EventKind = "corrupt-off"
	EvRestart    EventKind = "restart"
)

// Event is one fault injection at virtual time At.
type Event struct {
	At   rt.Ticks  `json:"at"`
	Kind EventKind `json:"kind"`
	// Node is the crash victim; Mid selects a mid-broadcast crash.
	Node int  `json:"node,omitempty"`
	Mid  bool `json:"mid,omitempty"`
	// Groups are the partition islands (nodes in no group form one
	// implicit extra island).
	Groups [][]int `json:"groups,omitempty"`
	// Src/Dst identify the link of a drop or spike window.
	Src int `json:"src,omitempty"`
	Dst int `json:"dst,omitempty"`
	// Prob is the loss probability of a drop window.
	Prob float64 `json:"prob,omitempty"`
	// Extra is the added delay of a spike window, in ticks.
	Extra rt.Ticks `json:"extra,omitempty"`
}

func (e Event) String() string {
	switch e.Kind {
	case EvCrash:
		mid := ""
		if e.Mid {
			mid = " (mid-broadcast)"
		}
		return fmt.Sprintf("t=%-8d crash node %d%s", e.At, e.Node, mid)
	case EvPartition:
		return fmt.Sprintf("t=%-8d partition islands=%v", e.At, e.Groups)
	case EvHeal:
		return fmt.Sprintf("t=%-8d heal", e.At)
	case EvDropOn:
		return fmt.Sprintf("t=%-8d drop-on  %d->%d p=%.2f", e.At, e.Src, e.Dst, e.Prob)
	case EvDropOff:
		return fmt.Sprintf("t=%-8d drop-off %d->%d", e.At, e.Src, e.Dst)
	case EvSpikeOn:
		return fmt.Sprintf("t=%-8d spike-on  %d->%d extra=%d", e.At, e.Src, e.Dst, e.Extra)
	case EvSpikeOff:
		return fmt.Sprintf("t=%-8d spike-off %d->%d", e.At, e.Src, e.Dst)
	case EvCorruptOn:
		return fmt.Sprintf("t=%-8d corrupt-on  %d->%d p=%.2f", e.At, e.Src, e.Dst, e.Prob)
	case EvCorruptOff:
		return fmt.Sprintf("t=%-8d corrupt-off %d->%d", e.At, e.Src, e.Dst)
	case EvRestart:
		return fmt.Sprintf("t=%-8d restart node %d", e.At, e.Node)
	}
	return fmt.Sprintf("t=%-8d %s", e.At, e.Kind)
}

// Schedule is a deterministic fault schedule: the same (seed, n, f,
// duration, mix) always generates the same event list, on every backend.
type Schedule struct {
	Seed     int64    `json:"seed"`
	N        int      `json:"n"`
	F        int      `json:"f"`
	Duration rt.Ticks `json:"duration"`
	Mix      Mix      `json:"mix"`
	// Churn is set on schedules produced by GenerateChurn (Mix is then
	// zero); it participates in Hash, so churn and plain schedules with
	// the same seed never collide.
	Churn  bool    `json:"churn,omitempty"`
	Events []Event `json:"events"`
}

// HasRestarts reports whether the schedule contains any restart event —
// Run uses it to decide whether nodes need WAL files attached.
func (s Schedule) HasRestarts() bool {
	for _, e := range s.Events {
		if e.Kind == EvRestart {
			return true
		}
	}
	return false
}

// Generate derives the fault schedule from the seed. All randomness comes
// from one private RNG consumed in a fixed order, so schedules reproduce
// exactly; events are sorted by time (generation order breaks ties).
func Generate(seed int64, n, f int, duration rt.Ticks, mix Mix) Schedule {
	rng := rand.New(rand.NewSource(seed))
	if mix.DropProb == 0 {
		mix.DropProb = 0.25
	}
	if mix.SpikeExtraD == 0 {
		mix.SpikeExtraD = 3
	}
	var evs []Event

	// Crashes: distinct victims, times in the middle [0.15, 0.8) of the
	// run so operations exist both before and after.
	crashes := mix.Crashes
	if crashes > f {
		crashes = f
	}
	var victims []int
	if crashes > 0 {
		victims = rng.Perm(n)[:crashes]
		for i, v := range victims {
			at := duration * rt.Ticks(15+rng.Intn(65)) / 100
			evs = append(evs, Event{At: at, Kind: EvCrash, Node: v, Mid: i%2 == 1})
		}
	}

	// Partition episodes: serialized into disjoint slots of [0.1, 0.9) of
	// the run, each isolating an island small enough that the majority
	// side keeps an n-f quorum, and each healing within its slot.
	if mix.Partitions > 0 && n > 1 {
		maxIsland := f
		if maxIsland < 1 {
			maxIsland = 1
		}
		if maxIsland > n-1 {
			maxIsland = n - 1
		}
		span := duration * 8 / 10
		slot := span / rt.Ticks(mix.Partitions)
		for i := 0; i < mix.Partitions; i++ {
			base := duration/10 + rt.Ticks(i)*slot
			start := base + rt.Ticks(rng.Int63n(int64(slot/4)+1))
			heal := start + slot/2
			m := 1 + rng.Intn(maxIsland)
			island := append([]int(nil), rng.Perm(n)[:m]...)
			sort.Ints(island)
			evs = append(evs,
				Event{At: start, Kind: EvPartition, Groups: [][]int{island}},
				Event{At: heal, Kind: EvHeal})
		}
	}

	// Per-link drop and spike windows, anywhere in [0.1, 0.85) of the run.
	window := func() (rt.Ticks, rt.Ticks) {
		start := duration/10 + rt.Ticks(rng.Int63n(int64(duration*6/10)+1))
		length := duration/20 + rt.Ticks(rng.Int63n(int64(duration/10)+1))
		return start, start + length
	}
	link := func() (int, int) {
		src := rng.Intn(n)
		dst := rng.Intn(n - 1)
		if dst >= src {
			dst++
		}
		return src, dst
	}
	for i := 0; i < mix.DropWindows && n > 1; i++ {
		start, end := window()
		src, dst := link()
		evs = append(evs,
			Event{At: start, Kind: EvDropOn, Src: src, Dst: dst, Prob: mix.DropProb},
			Event{At: end, Kind: EvDropOff, Src: src, Dst: dst})
	}
	extra := rt.Ticks(mix.SpikeExtraD * float64(rt.TicksPerD))
	for i := 0; i < mix.SpikeWindows && n > 1; i++ {
		start, end := window()
		src, dst := link()
		evs = append(evs,
			Event{At: start, Kind: EvSpikeOn, Src: src, Dst: dst, Extra: extra},
			Event{At: end, Kind: EvSpikeOff, Src: src, Dst: dst})
	}

	// Wire-corruption windows. Generated last so enabling them never
	// perturbs the RNG draws of the fault kinds above — a seed's crash,
	// partition, drop, and spike events stay identical with or without
	// corruption. Corrupt sources come from a fixed budget of at most f
	// nodes (crash victims first, then fresh picks), so a mutant that
	// still decodes attributes all Byzantine behaviour to ≤ f nodes.
	if mix.CorruptWindows > 0 && n > 1 && f > 0 {
		if mix.CorruptProb == 0 {
			mix.CorruptProb = 0.2
		}
		srcs := append([]int(nil), victims...)
		for _, cand := range rng.Perm(n) {
			if len(srcs) >= f {
				break
			}
			taken := false
			for _, s := range srcs {
				if s == cand {
					taken = true
					break
				}
			}
			if !taken {
				srcs = append(srcs, cand)
			}
		}
		for i := 0; i < mix.CorruptWindows; i++ {
			start, end := window()
			src := srcs[rng.Intn(len(srcs))]
			dst := rng.Intn(n - 1)
			if dst >= src {
				dst++
			}
			evs = append(evs,
				Event{At: start, Kind: EvCorruptOn, Src: src, Dst: dst, Prob: mix.CorruptProb},
				Event{At: end, Kind: EvCorruptOff, Src: src, Dst: dst})
		}
	}

	// Restarts. Generated last (like corruption) so enabling them never
	// perturbs the RNG draws of any fault kind above: a seed's crash,
	// partition, drop, spike, and corrupt events are identical with or
	// without recovery. The first Restarts crash victims come back a
	// randomized delay after their crash — at least 3D, so the
	// mid-broadcast fallback crash (armed victim + 2D) has always fired
	// by the time the node restarts.
	if mix.Restarts > 0 && len(victims) > 0 {
		delayD := mix.RestartDelayD
		if delayD == 0 {
			delayD = 5
		}
		if delayD < 3 {
			delayD = 3
		}
		k := mix.Restarts
		if k > len(victims) {
			k = len(victims)
		}
		for i := 0; i < k; i++ {
			v := victims[i]
			var crashAt rt.Ticks
			for _, e := range evs {
				if e.Kind == EvCrash && e.Node == v {
					crashAt = e.At
				}
			}
			delay := rt.Ticks(delayD*float64(rt.TicksPerD)) + rt.Ticks(rng.Int63n(int64(rt.TicksPerD)))
			evs = append(evs, Event{At: crashAt + delay, Kind: EvRestart, Node: v})
		}
	}

	sort.SliceStable(evs, func(i, j int) bool { return evs[i].At < evs[j].At })
	return Schedule{Seed: seed, N: n, F: f, Duration: duration, Mix: mix, Events: evs}
}

// The churn schedule's lanes — sustained rolling crash→restart cycles,
// single-node membership flaps and lagging-node delay windows running for
// the whole duration, instead of the handful of one-shot faults of Mix —
// in units of D.
const (
	// churnRestartPeriodD is the target gap between crash starts of the
	// rolling restart lane; churnRestartDownD is each cycle's downtime
	// (at least 3, so the mid-broadcast fallback crash at +2D always
	// precedes the restart).
	churnRestartPeriodD float64 = 40
	churnRestartDownD   float64 = 8
	// churnFlapPeriodD is the target gap between membership flaps;
	// churnFlapDownD is how long a flapped node stays isolated.
	churnFlapPeriodD float64 = 25
	churnFlapDownD   float64 = 6
	// One lagging-node lane: churnSlowExtraD of added delay on the node's
	// links for churnSlowOnD, every churnSlowPeriodD. The window is short
	// because the transport fault injector parks spiked messages until it
	// ends.
	churnSlowExtraD  float64 = 2
	churnSlowPeriodD float64 = 15
	churnSlowOnD     float64 = 5
)

// GenerateChurn derives a churn schedule from the seed: round-robin
// crash→restart cycles (when restarts is set — the engine can recover
// from its WAL), single-node partition flaps, and periodic delay windows
// that make one node lag. Like Generate it is a pure function of its
// arguments, and it honors the fault budget at every instant: the number
// of nodes crashed or isolated never exceeds f. With f == 1 the restart
// and flap lanes are serialized into one alternating lane; with f ≥ 2
// they run concurrently (each lane impairs at most one node at a time).
// All faults land in [5D, 0.9·duration), leaving a clean tail to drain.
func GenerateChurn(seed int64, n, f int, duration rt.Ticks, restarts bool) Schedule {
	rng := rand.New(rand.NewSource(seed))
	ticksD := func(d float64) rt.Ticks { return rt.Ticks(d * float64(rt.TicksPerD)) }
	jit := func(maxD float64) rt.Ticks { return rt.Ticks(rng.Int63n(int64(ticksD(maxD)) + 1)) }
	warmup := ticksD(5)
	end := duration * 9 / 10
	var evs []Event

	// downSpan records one charged unit of the fault budget: node is
	// crashed or isolated throughout [from, to).
	type downSpan struct {
		node     int
		from, to rt.Ticks
	}
	var downs []downSpan

	restartLane := restarts && f >= 1 && n >= 2
	flapLane := f >= 1 && n >= 2

	crashCycle := func(v int, t, down rt.Ticks, mid bool) {
		evs = append(evs,
			Event{At: t, Kind: EvCrash, Node: v, Mid: mid},
			Event{At: t + down, Kind: EvRestart, Node: v})
		downs = append(downs, downSpan{node: v, from: t, to: t + down})
	}
	flapCycle := func(v int, t, down rt.Ticks) {
		evs = append(evs,
			Event{At: t, Kind: EvPartition, Groups: [][]int{{v}}},
			Event{At: t + down, Kind: EvHeal})
		downs = append(downs, downSpan{node: v, from: t, to: t + down})
	}

	switch {
	case restartLane && f == 1:
		// One unit of fault budget: a restart cycle and a flap may never
		// overlap, so a single serialized lane alternates them.
		rv, fv := rng.Intn(n), rng.Intn(n)
		t := warmup + jit(churnRestartPeriodD/4)
		for i := 0; ; i++ {
			if i%2 == 0 {
				down := ticksD(churnRestartDownD) + jit(1)
				if t+down >= end {
					break
				}
				crashCycle(rv, t, down, (i/2)%2 == 1)
				rv = (rv + 1) % n
				t += down + ticksD(churnRestartPeriodD/2) + jit(churnRestartPeriodD/4)
			} else {
				down := ticksD(churnFlapDownD) + jit(1)
				if t+down >= end {
					break
				}
				flapCycle(fv, t, down)
				fv = (fv + 1) % n
				t += down + ticksD(churnFlapPeriodD/2) + jit(churnFlapPeriodD/4)
			}
		}
	default:
		// Independent lanes, each internally serialized (the next cycle
		// starts only after the previous downtime ends), so each lane
		// charges at most one budget unit at any instant.
		if restartLane {
			v := rng.Intn(n)
			t := warmup + jit(churnRestartPeriodD/4)
			for i := 0; ; i++ {
				down := ticksD(churnRestartDownD) + jit(1)
				if t+down >= end {
					break
				}
				crashCycle(v, t, down, i%2 == 1)
				v = (v + 1) % n
				t += ticksD(churnRestartPeriodD) + jit(churnRestartPeriodD/4)
			}
		}
		// With f == 1 and no restart lane, flapping is the only lane and
		// may run alone; with f ≥ 2 it runs concurrently with restarts.
		if flapLane && (f >= 2 || !restartLane) {
			v := rng.Intn(n)
			t := warmup + ticksD(churnFlapPeriodD/3) + jit(churnFlapPeriodD/4)
			for {
				down := ticksD(churnFlapDownD) + jit(1)
				if t+down >= end {
					break
				}
				// Flap the next node whose restart-lane downtime does not
				// overlap this window, so the two charged units never land
				// on the same node (keeps every flap observable).
				pick := -1
				for k := 0; k < n; k++ {
					cand := (v + k) % n
					busy := false
					for _, d := range downs {
						if d.node == cand && d.from < t+down && t < d.to {
							busy = true
							break
						}
					}
					if !busy {
						pick = cand
						break
					}
				}
				if pick >= 0 {
					flapCycle(pick, t, down)
					v = (pick + 1) % n
				}
				t += ticksD(churnFlapPeriodD) + jit(churnFlapPeriodD/4)
			}
		}
	}

	// The lagging-node lane: periodic windows where one node's links (both
	// directions) carry extra delay. Delay charges no fault budget. The
	// lagging node rotates window to window.
	if n > 1 {
		extra := ticksD(churnSlowExtraD)
		v := rng.Intn(n)
		t := warmup + jit(churnSlowPeriodD)
		for {
			on := ticksD(churnSlowOnD) + jit(1)
			if t+on >= end {
				break
			}
			for j := 0; j < n; j++ {
				if j == v {
					continue
				}
				evs = append(evs,
					Event{At: t, Kind: EvSpikeOn, Src: v, Dst: j, Extra: extra},
					Event{At: t + on, Kind: EvSpikeOff, Src: v, Dst: j},
					Event{At: t, Kind: EvSpikeOn, Src: j, Dst: v, Extra: extra},
					Event{At: t + on, Kind: EvSpikeOff, Src: j, Dst: v})
			}
			v = (v + 1) % n
			t += on + ticksD(churnSlowPeriodD) + jit(churnSlowPeriodD/2)
		}
	}

	sort.SliceStable(evs, func(i, j int) bool { return evs[i].At < evs[j].At })
	return Schedule{Seed: seed, N: n, F: f, Duration: duration, Churn: true, Events: evs}
}
