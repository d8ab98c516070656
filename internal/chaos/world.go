package chaos

import (
	"math/rand"

	"mpsnap/internal/rt"
	"mpsnap/internal/sim"
)

// World is the backend a schedule-driven run executes on: n nodes, one
// clock in virtual ticks, threads, and the fault actions a Schedule can
// name. The one runner, Run, is written once against it — plain and
// sharded runs alike — and never learns which of the two implementations
// it got: simWorld (the deterministic simulator, virtual time) or
// wallWorld (the chan and tcp transports, DReal of wall clock per D).
// What differs between the
// two — how time passes, how a thread is spawned, what must be waited out
// before a dead node's WAL may be touched, and how a run that lost its
// quorum is brought to an end — is behind this interface.
type World interface {
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

	// Crash crash-stops node id (idempotent). ArmMidCrash makes its next
	// broadcast reach only a random prefix of the destinations before it
	// crashes — the paper's crash-while-sending.
	Crash(id int)
	ArmMidCrash(id int)
	// Crashed reports whether node id is crash-stopped. Once it returns
	// true the dead incarnation's last critical section has ended, so the
	// caller may replay its WAL.
	Crashed(id int) bool
	// Restart brings a crashed node back with the recovered incarnation's
	// handler.
	Restart(id int, h rt.Handler)

	// Partition isolates the given islands (nodes in no group form one
	// more) and holds cross-cut messages, in send order, until Heal.
	Partition(groups ...[]int)
	Heal()
	// Drop, Spike and Corrupt open a loss, delay or wire-corruption window
	// on the src→dst link; a zero argument closes it.
	Drop(src, dst int, prob float64)
	Spike(src, dst int, extra rt.Ticks)
	Corrupt(src, dst int, prob float64)

	// Run executes the run: client threads stop invoking operations at
	// deadline, and any still blocked grace ticks later lost its quorum, so
	// its node is crash-aborted and the wait is named in blocked. drain
	// (nil for none) closes the service threads' fronts once the clients
	// are done.
	Run(deadline, grace rt.Ticks, drain func()) (blocked []string, err error)
	// Close releases the backend's goroutines and sockets.
	Close()
}

// WorldConfig parameterizes NewWorld.
type WorldConfig struct {
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

// NewWorld brings up the named backend: "sim", "chan" or "tcp".
func NewWorld(backend string, cfg WorldConfig) (World, error) {
	if backend == "sim" {
		return newSimWorld(cfg), nil
	}
	return newWallWorld(backend, cfg)
}

// Inject schedules every fault event on w; restart handles EvRestart (the
// runner owns WAL replay and the rebuilt node's stack). It is the only
// place a fault Event becomes an action.
func Inject(w World, events []Event, restart func(id int)) {
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

// simLink realizes the schedule's drop and spike windows as a
// sim.LinkAdversary. State is mutated by scheduled events; the RNG is
// consulted only for links inside an active drop window, in send order,
// so runs replay exactly.
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

// simWorld is the World over the deterministic simulator: the embedded
// sim.World supplies the nodes, clock, crash flags and partition cut; the
// three adversaries hold the link, mid-broadcast and wire fault state.
// Everything runs on the scheduler's one thread, so the whole run is a
// function of the seed and of the order of At and Go* calls.
type simWorld struct {
	*sim.World
	link *simLink
	mid  *midCrash
	corr *corrupter
}

func newSimWorld(cfg WorldConfig) *simWorld {
	s := &simWorld{
		link: &simLink{
			rng:   rand.New(rand.NewSource(cfg.Seed + 1)),
			drop:  make(map[[2]int]float64),
			extra: make(map[[2]int]rt.Ticks),
		},
		mid:  &midCrash{rng: rand.New(rand.NewSource(cfg.Seed + 2)), armed: make(map[int]bool)},
		corr: newCorrupter(cfg.Seed+4, cfg.Byzantine),
	}
	s.World = sim.New(sim.Config{N: cfg.N, F: cfg.F, Seed: cfg.Seed, Observer: cfg.Observer,
		Adversary: s.mid, Link: s.link, Wire: s.corr})
	return s
}

func (s *simWorld) GoClient(name string, node int, fn func()) { s.GoService(name, node, fn) }

func (s *simWorld) GoService(name string, node int, fn func()) {
	s.GoNode(name, node, func(*sim.Proc) { fn() })
}

func (s *simWorld) At(t rt.Ticks, fn func()) { s.After(t-s.Now(), fn) }

func (s *simWorld) ArmMidCrash(id int) { s.mid.armed[id] = true }

func (s *simWorld) Restart(id int, h rt.Handler) {
	s.SetHandler(id, h)
	s.World.Restart(id)
}

func (s *simWorld) Drop(src, dst int, prob float64)    { s.link.drop[[2]int{src, dst}] = prob }
func (s *simWorld) Spike(src, dst int, extra rt.Ticks) { s.link.extra[[2]int{src, dst}] = extra }
func (s *simWorld) Corrupt(src, dst int, prob float64) { s.corr.windows[[2]int{src, dst}] = prob }

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

var _ World = (*simWorld)(nil)
