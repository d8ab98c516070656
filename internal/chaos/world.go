package chaos

import (
	"math/rand"
	"sync"

	"mpsnap/internal/rt"
	"mpsnap/internal/sim"
)

// world is the backend a schedule-driven run executes on: n nodes, one
// clock in virtual ticks, threads, and the fault actions a Schedule can
// name. The one runner, Run, is written once against it — plain and
// sharded runs alike — and never learns which of the two implementations
// it got: simWorld (the deterministic simulator, virtual time) or
// wallWorld (the chan and tcp transports, dReal of wall clock per D).
// What differs between the
// two — how time passes, how a thread is spawned, what must be waited out
// before a dead node's WAL may be touched, and how a run that lost its
// quorum is brought to an end — is behind this interface.
type world interface {
	// Runtime returns node id's fault-injected runtime: build the node's
	// stack against it and install its handler with SetHandler.
	Runtime(id int) rt.Runtime
	SetHandler(id int, h rt.Handler)

	// GoClient spawns a workload thread on node; the run lasts until every
	// client thread has returned. Once the run is over (only a mid-run
	// respawn can see that) it drops fn.
	GoClient(name string, node int, fn func())
	// GoService spawns a thread that serves until its node is closed or
	// crashes; the run does not wait for it.
	GoService(name string, node int, fn func())

	// Now reads the run's one clock (comparable across nodes); Sleep
	// suspends the calling thread and fails if its node crashed meanwhile.
	Now() rt.Ticks
	Sleep(d rt.Ticks) error
	// At schedules fn at tick t; equal ticks fire in call order. Every At
	// precedes Run.
	At(t rt.Ticks, fn func())

	// Crash crash-stops node id (idempotent) and disarms its armed
	// mid-broadcast crash, if any. ArmMidCrash makes its next broadcast
	// reach only a random prefix of the destinations before it crashes,
	// inside the critical section of that broadcast — the paper's
	// crash-while-sending.
	Crash(id int)
	ArmMidCrash(id int)
	// Crashed reports whether node id is crash-stopped. Once it returns
	// true the dead incarnation's last critical section has ended, so the
	// caller may replay its WAL.
	Crashed(id int) bool
	// Restart brings a crashed node back with the recovered incarnation's
	// handler, installed in the same step.
	Restart(id int, h rt.Handler)

	// Partition isolates the given islands (nodes in no group form one
	// more) and holds cross-cut messages, in send order, until Heal or a
	// Partition that no longer cuts their link; they are delivered even
	// if their sender crashed meanwhile.
	Partition(groups ...[]int)
	Heal()
	// Drop, Spike and Corrupt open a loss, delay or wire-corruption window
	// on the src→dst link; a zero argument closes it. A spike delays each
	// message by extra on the simulator and holds the link for the whole
	// window on chan and tcp.
	Drop(src, dst int, prob float64)
	Spike(src, dst int, extra rt.Ticks)
	Corrupt(src, dst int, prob float64)

	// Tally counts the messages the fault windows dropped, held and
	// corrupted so far.
	Tally() FaultTally

	// Run executes the run: client threads stop invoking operations at
	// deadline, and any still blocked grace ticks later lost its quorum, so
	// its node is crash-aborted and the wait is named in blocked. drain
	// (nil for none) closes the service threads' fronts once the clients
	// are done.
	Run(deadline, grace rt.Ticks, drain func()) (blocked []string, err error)
	// Close releases the backend's goroutines and sockets.
	Close()
}

// worldConfig parameterizes newWorld.
type worldConfig struct {
	N, F int
	// Seed drives message delays and every fault coin (loss, corruption,
	// mid-broadcast prefix), each from its own stream.
	Seed int64
	// Observer, if set, receives every message lifecycle event.
	Observer rt.Observer
	// Byzantine delivers corrupted frames that still decode (the engine's
	// checker budgets for ≤ f misbehaving sources); otherwise they are
	// dropped like undecodable ones.
	Byzantine bool
}

// newWorld brings up the named backend: "sim", "chan" or "tcp".
func newWorld(backend string, cfg worldConfig) (world, error) {
	if backend == "sim" {
		return newSimWorld(cfg), nil
	}
	return newWallWorld(backend, cfg)
}

// inject schedules every fault event on w; restart handles EvRestart (the
// runner owns WAL replay and the rebuilt node's stack). It is the only
// place a fault Event becomes an action.
func inject(w world, events []Event, restart func(id int)) {
	for _, ev := range events {
		switch ev.Kind {
		case EvCrash:
			if ev.Mid {
				// If the armed victim broadcasts nothing within 2D, crash it
				// outright (restarts come no sooner than 3D after).
				w.At(ev.At, func() { w.ArmMidCrash(ev.Node) })
				w.At(ev.At+2*rt.TicksPerD, func() { w.Crash(ev.Node) })
			} else {
				w.At(ev.At, func() { w.Crash(ev.Node) })
			}
		case EvPartition:
			w.At(ev.At, func() { w.Partition(ev.Groups...) })
		case EvHeal:
			w.At(ev.At, w.Heal)
		case EvDropOn:
			w.At(ev.At, func() { w.Drop(ev.Src, ev.Dst, ev.Prob) })
		case EvDropOff:
			w.At(ev.At, func() { w.Drop(ev.Src, ev.Dst, 0) })
		case EvSpikeOn:
			w.At(ev.At, func() { w.Spike(ev.Src, ev.Dst, ev.Extra) })
		case EvSpikeOff:
			w.At(ev.At, func() { w.Spike(ev.Src, ev.Dst, 0) })
		case EvCorruptOn:
			w.At(ev.At, func() { w.Corrupt(ev.Src, ev.Dst, ev.Prob) })
		case EvCorruptOff:
			w.At(ev.At, func() { w.Corrupt(ev.Src, ev.Dst, 0) })
		case EvRestart:
			w.At(ev.At, func() { restart(ev.Node) })
		}
	}
}

// faults is the fault state a Schedule drives, one set for both worlds:
// the drop and spike windows (simLink), the armed mid-broadcast crashes
// (midCrash) and the wire-corruption windows (corrupter), each from its
// own seeded stream. Its methods are the world's Drop, Spike, Corrupt and
// ArmMidCrash on both. The simulator consults the three as its adversaries
// on its one thread; the wall world's senders consult them under mu.
type faults struct {
	mu   sync.Mutex
	link *simLink
	mid  *midCrash
	corr *corrupter
	// spiked, if set, learns under mu that src→dst's spike window opened
	// or closed (the wall world holds the link while it is open).
	spiked func(src, dst int)
}

func newFaults(seed int64, byzantine bool) *faults {
	return &faults{
		link: &simLink{
			rng:   rand.New(rand.NewSource(seed + 1)),
			drop:  make(map[[2]int]float64),
			extra: make(map[[2]int]rt.Ticks),
		},
		mid:  &midCrash{rng: rand.New(rand.NewSource(seed + 2)), armed: make(map[int]bool)},
		corr: newCorrupter(seed+4, byzantine),
	}
}

func (f *faults) ArmMidCrash(id int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.mid.armed[id] = true
}

// disarm drops node id's armed mid-broadcast crash, for both worlds'
// Crash: a crash ends the incarnation the arm was aimed at, and it must
// not strike the next one.
func (f *faults) disarm(id int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	delete(f.mid.armed, id)
}

func (f *faults) Drop(src, dst int, prob float64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.link.drop[[2]int{src, dst}] = prob
}

func (f *faults) Spike(src, dst int, extra rt.Ticks) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.link.extra[[2]int{src, dst}] = extra
	if f.spiked != nil {
		f.spiked(src, dst)
	}
}

func (f *faults) Corrupt(src, dst int, prob float64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.corr.windows[[2]int{src, dst}] = prob
}

// simLink realizes the schedule's drop and spike windows as a
// sim.LinkAdversary: a spike adds its extra delay on the simulator (the
// wall world holds the link instead). State is mutated by scheduled
// events; the RNG is consulted only for links inside an active drop
// window, in send order, so runs replay exactly.
type simLink struct {
	rng   *rand.Rand
	drop  map[[2]int]float64
	extra map[[2]int]rt.Ticks
}

// OnSend implements sim.LinkAdversary.
func (l *simLink) OnSend(now rt.Ticks, src, dst int, kind string) sim.LinkFate {
	key := [2]int{src, dst}
	fate := sim.LinkFate{Extra: l.extra[key]}
	if p := l.drop[key]; p > 0 && l.rng.Float64() < p {
		fate.Drop = true
	}
	return fate
}

// midCrash arms scheduled mid-broadcast crashes: an armed node's next
// broadcast reaches only a random prefix of the destinations, then the
// node crashes — the paper's "crash while sending" failure mode.
type midCrash struct {
	rng   *rand.Rand
	armed map[int]bool
}

// OnBroadcast implements sim.Adversary.
func (a *midCrash) OnBroadcast(now rt.Ticks, src int, msg rt.Message, dsts []int) ([]int, bool) {
	if !a.armed[src] {
		return dsts, false
	}
	delete(a.armed, src)
	return dsts[:a.rng.Intn(len(dsts))], true
}

// simWorld is the world over the deterministic simulator: the embedded
// sim.World supplies the nodes, clock, crash flags and partition cut, and
// the fault objects act as its adversaries. Everything runs on the
// scheduler's one thread, so the whole run is a function of the seed and
// of the order of At and Go* calls.
type simWorld struct {
	*sim.World
	*faults
}

func newSimWorld(cfg worldConfig) *simWorld {
	f := newFaults(cfg.Seed, cfg.Byzantine)
	return &simWorld{
		World: sim.New(sim.Config{N: cfg.N, F: cfg.F, Seed: cfg.Seed, Observer: cfg.Observer,
			Adversary: f.mid, Link: f.link, Wire: f.corr}),
		faults: f,
	}
}

func (s *simWorld) GoClient(name string, node int, fn func()) { s.GoService(name, node, fn) }

func (s *simWorld) GoService(name string, node int, fn func()) {
	s.GoNode(name, node, func(*sim.Proc) { fn() })
}

func (s *simWorld) At(t rt.Ticks, fn func()) { s.After(t-s.Now(), fn) }

// Crash crash-stops node id and disarms it.
func (s *simWorld) Crash(id int) {
	s.disarm(id)
	s.World.Crash(id)
}

// Tally implements world.
func (s *simWorld) Tally() FaultTally {
	st := s.Stats()
	return FaultTally{Dropped: st.MsgsDrop, Held: st.MsgsHeld, Corrupt: st.MsgsCorrupt}
}

// Run drains strictly before the first unblock sweep, so drained workers
// exit instead of being mistaken for stuck operations. Each sweep either
// finds nothing blocked or crashes at least one node, so n+1 sweeps
// always suffice to let the simulation run dry.
func (s *simWorld) Run(deadline, grace rt.Ticks, drain func()) ([]string, error) {
	if drain != nil {
		s.At(deadline+grace/2, drain)
	}
	var blocked []string
	for k := 1; k <= s.N()+1; k++ {
		s.At(deadline+grace*rt.Ticks(k), func() {
			for _, bw := range s.Blocked() {
				if bw.Node >= 0 && !s.Crashed(bw.Node) {
					blocked = append(blocked, bw.String())
					s.Crash(bw.Node)
				}
			}
		})
	}
	err := s.World.Run()
	return blocked, err
}

func (s *simWorld) Close() {}

var _ world = (*simWorld)(nil)
