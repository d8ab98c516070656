package chaos

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"mpsnap/internal/rt"
	"mpsnap/internal/transport"
)

// dReal is the wall-clock duration standing in for one maximum message
// delay D on the real transports, so a Schedule's virtual times map to
// wall time uniformly across backends: ev.At ticks → ev.At·(dReal/TicksPerD).
const dReal = 10 * time.Millisecond

// tickReal is the wall-clock duration of one virtual tick.
const tickReal = dReal / time.Duration(rt.TicksPerD)

// TicksOf converts a wall-clock duration into virtual ticks under the
// dReal mapping, so "-duration 5s" means the same schedule on every
// backend.
func TicksOf(d time.Duration) rt.Ticks { return rt.Ticks(d / tickReal) }

// wallWorld is the world over a real transport — "chan" (in-process
// goroutine links) or "tcp" (a loopback mesh, all nodes in this process)
// — with D = dReal. The embedded faultNet wraps the transport's runtimes
// and applies the fault objects to their sends; threads are goroutines;
// At callbacks replay on one driver goroutine (so restarts are
// serialized); and since real scheduling is not deterministic, only the
// fault schedule and the verdict reproduce, not the exact history.
type wallWorld struct {
	*faultNet
	backend    string
	setHandler func(id int, h rt.Handler)
	// restart swaps a recovered node's handler in.
	restart func(id int, h rt.Handler)
	close   func()

	// start is the epoch of the run's one clock: per-node Now() values are
	// offset by each node's start time and would order concurrent events
	// inconsistently across nodes.
	start  time.Time
	timers []wallTimer

	// Client accounting is a guarded counter rather than a WaitGroup:
	// restarts spawn clients mid-run, and WaitGroup.Add concurrent with
	// Wait is undefined. active counts live client threads plus one slot
	// Run holds until it starts waiting; once it drains to zero it is
	// pinned at -1 and finished closes, so no respawn can revive the run.
	mu       sync.Mutex
	active   int
	finished chan struct{}
}

type wallTimer struct {
	at rt.Ticks
	fn func()
}

func newWallWorld(backend string, cfg worldConfig) (*wallWorld, error) {
	w := &wallWorld{backend: backend, active: 1, finished: make(chan struct{})}
	var unders []rt.Runtime
	var crash func(id int)
	var hold func(src, dst int, on bool)
	switch backend {
	case "chan":
		cn := transport.NewChanNet(transport.ChanConfig{N: cfg.N, F: cfg.F, D: dReal, Seed: cfg.Seed, Observer: cfg.Observer})
		crash, hold, w.setHandler, w.restart, w.close = cn.Crash, cn.Hold, cn.SetHandler, cn.Restart, cn.Close
		for i := 0; i < cfg.N; i++ {
			unders = append(unders, cn.Runtime(i))
		}
	case "tcp":
		// The mesh shares one epoch, so construction skew never shows up as
		// clock skew between nodes.
		nodes, err := transport.LoopbackMesh(cfg.N, transport.TCPConfig{F: cfg.F, D: dReal, Observer: cfg.Observer})
		if err != nil {
			return nil, err
		}
		crash = func(id int) { nodes[id].Crash() }
		hold = func(src, dst int, on bool) { nodes[src].Hold(dst, on) }
		w.setHandler = func(id int, h rt.Handler) { nodes[id].SetHandler(h) }
		w.restart = func(id int, h rt.Handler) { nodes[id].Restart(h) }
		w.close = func() {
			for _, nd := range nodes {
				nd.Close()
			}
		}
		for _, nd := range nodes {
			unders = append(unders, nd.Runtime())
		}
	default:
		return nil, fmt.Errorf("chaos: unknown backend %q (want sim|chan|tcp)", backend)
	}
	w.faultNet = newFaultNet(newFaults(cfg.Seed, cfg.Byzantine), unders, crash, hold)
	w.start = time.Now()
	return w, nil
}

func (w *wallWorld) SetHandler(id int, h rt.Handler) { w.setHandler(id, h) }

func (w *wallWorld) GoClient(_ string, _ int, fn func()) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.active < 0 {
		return
	}
	w.active++
	go func() {
		defer w.clientDone()
		fn()
	}()
}

func (w *wallWorld) clientDone() {
	w.mu.Lock()
	w.active--
	if w.active == 0 {
		w.active = -1
		close(w.finished)
	}
	w.mu.Unlock()
}

func (w *wallWorld) GoService(_ string, _ int, fn func()) { go fn() }

func (w *wallWorld) Now() rt.Ticks { return rt.Ticks(time.Since(w.start) / tickReal) }

func (w *wallWorld) Sleep(d rt.Ticks) error {
	time.Sleep(time.Duration(d) * tickReal)
	return nil
}

func (w *wallWorld) At(t rt.Ticks, fn func()) { w.timers = append(w.timers, wallTimer{t, fn}) }

// Crashed reads the transport's crash flag and also waits out the dead
// incarnation's last critical section: handlers and WAL appends run under
// the transport node's mutex, and a crashed node starts no new one.
func (w *wallWorld) Crashed(id int) bool {
	if !w.unders[id].Crashed() {
		return false
	}
	w.unders[id].Atomic(func() {})
	return true
}

// Restart swaps the handler in and clears the transport's crash flag in
// one critical section.
func (w *wallWorld) Restart(id int, h rt.Handler) { w.restart(id, h) }

func (w *wallWorld) until(t rt.Ticks) time.Duration {
	return time.Until(w.start.Add(time.Duration(t) * tickReal))
}

// Run ends when the last client returns. A client still blocked grace
// past the deadline lost its quorum (drops, excess crashes): every node
// is crashed so blocked waits release with rt.ErrCrashed and the stuck
// operations end the run as pending. The driver is joined before drain,
// so no restart is rebuilding a node while the runner tears them down.
func (w *wallWorld) Run(deadline, grace rt.Ticks, drain func()) ([]string, error) {
	sort.SliceStable(w.timers, func(i, j int) bool { return w.timers[i].at < w.timers[j].at })
	stop, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		for _, tm := range w.timers {
			select {
			case <-time.After(w.until(tm.at)):
				tm.fn()
			case <-stop:
				return
			}
		}
	}()
	w.clientDone() // Run's own slot: from here the last client out ends the run

	var blocked []string
	select {
	case <-w.finished:
	case <-time.After(w.until(deadline + grace)):
		blocked = append(blocked, fmt.Sprintf("%s: clients still blocked %v past the deadline; crash-aborted all nodes",
			w.backend, time.Duration(grace)*tickReal))
		for _, id := range w.all {
			w.Crash(id)
		}
		<-w.finished
	}
	close(stop)
	<-stopped
	if drain != nil {
		drain()
	}
	return blocked, nil
}

func (w *wallWorld) Close() { w.close() }

var _ world = (*wallWorld)(nil)
