package main

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"mpsnap/internal/engine"
	"mpsnap/internal/harness"
	"mpsnap/internal/monitor"
	"mpsnap/internal/rt"
	"mpsnap/internal/sim"
	"mpsnap/internal/svc"
)

// simWorkload is the paper's own regime: eqaso behind svc on the
// deterministic simulator, every message taking exactly D, with k nodes
// crashed during the run. Virtual time repeats bit for bit; the real
// clock measures how much processor the protocol costs.
//
// A repetition is several independent worlds run one after another, each
// with its own crash plan drawn from the seed. Which lattice operations
// turn out good, and so how often a node borrows a whole view, depends
// chaotically on the op order; one world's allocation volume moves by
// ±25% from seed to seed, and the mean over the worlds is what is steady.
// Short worlds also keep the offline check affordable: it is quadratic in
// a world's history.
type simWorkload struct {
	n, f, crashes int
	worlds        int
	sessions      int // closed-loop client sessions per node
	scanPct       int
	payload       int
	perSession    int // measured ops per session and world at refSeconds
	warmPerSess   int
	// opVirtualD is the virtual time one session spends per op, in D: it
	// places the crashes inside the run, not after it.
	opVirtualD float64
	// realPerD paces the simulation: one message delay D of virtual time
	// takes this long on the wall clock, so the worlds run like a
	// deployment with that delay injected on every link instead of as
	// fast as one processor can step them.
	realPerD time.Duration
}

func (w simWorkload) spec(seconds float64) opSpec {
	per := w.worlds * w.n * w.sessions
	return opSpec{
		warm: scaleOps(w.warmPerSess, seconds) * per, measured: scaleOps(w.perSession, seconds) * per,
		scanPct: w.scanPct, nodes: w.n, payload: w.payload,
	}
}

// crashPlan picks which nodes crash and when, from the world's seed. The
// times sit near fixed fractions of the run so that the amount of work
// does not depend on the seed; only the interleaving does.
func (w simWorkload) crashPlan(seed int64, perSess int) (nodes []int, at []rt.Ticks) {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	nodes = rng.Perm(w.n)[:w.crashes]
	dur := float64(perSess) * w.opVirtualD * float64(rt.TicksPerD)
	for k := range nodes {
		frac := float64(k+1)/float64(w.crashes+2) + (rng.Float64()-0.5)*0.04
		at = append(at, rt.Ticks(frac*dur))
	}
	return nodes, at
}

// paceEvery is how much virtual time passes between two looks at the wall
// clock: 4 D is 2 ms at the pace used here, and an idle Go process cannot
// sleep for less than about 1.1 ms.
const paceEvery = 4 * rt.TicksPerD

// simRun is the state one repetition accumulates over its worlds.
type simRun struct {
	w            simWorkload
	l            *opList
	tr           *tracer
	r            *rep
	updV, scanV  []int64
	keep         []engine.Engine // every world's engines, for live_heap_mb
	warmPer, per int
}

func (w simWorkload) run(l *opList, tr *tracer) (*rep, error) {
	total := w.worlds * w.n * w.sessions
	sr := &simRun{w: w, l: l, tr: tr, r: &rep{virt: &virtual{}}, warmPer: l.warm / total, per: (len(l.ops) - l.warm) / total}
	sr.r.load.inflightMax = w.n * w.sessions
	// The simulator runs one process at a time by construction. With one
	// P its hand-offs between scheduler and process stay on one thread;
	// with two they become cross-thread wake-ups, and cpu_us_per_op then
	// follows the host's wake-up latency.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for j := 0; j < w.worlds; j++ {
		if err := sr.world(j); err != nil {
			return nil, fmt.Errorf("simulator world %d: %w", j, err)
		}
	}
	r := sr.r
	r.liveHeap = retainedHeap(&sr.keep)
	r.ops = len(r.upd) + len(r.scan)
	r.problems = r.load.problems
	d := float64(rt.TicksPerD)
	uv, sv := sortedCopy(sr.updV), sortedCopy(sr.scanV)
	r.virt.OpsPerKD = float64(r.ops) / (float64(r.virt.Ticks) / d) * 1000
	r.virt.UpdP50, r.virt.UpdP99 = percentile(uv, .5)/d, percentile(uv, .99)/d
	r.virt.ScanP50, r.virt.ScanP99 = percentile(sv, .5)/d, percentile(sv, .99)/d
	return r, nil
}

// world builds, warms up, measures and checks one simulated world.
func (sr *simRun) world(j int) error {
	w, l, tr, r := sr.w, sr.l, sr.tr, sr.r
	t0 := time.Now()
	sessions := w.n * w.sessions
	seed := l.seed*int64(w.worlds) + int64(j)

	cfg := sim.Config{N: w.n, F: w.f, D: rt.TicksPerD, Delay: sim.Constant{Ticks: rt.TicksPerD}, Seed: seed}
	if tr != nil {
		cfg.Observer = tr.simObserver()
	}
	info := engine.MustLookup("eqaso")
	c := harness.Build(cfg, func(rtm rt.Runtime) (rt.Handler, harness.Object) {
		eng := info.New(rtm)
		sr.keep = append(sr.keep, eng)
		if tr != nil {
			return tr.wrapHandler(rtm.ID(), eng), tr.wrapObject(rtm.ID(), eng)
		}
		return eng, eng
	})
	world := c.W
	if tr != nil {
		// Worlds restart virtual time at 0; lay them end to end.
		base := int64(0)
		if tr.clock != nil {
			base = tr.clock() + int64(rt.TicksPerD)
		}
		tr.tickOffset = base
		tr.clock = func() int64 { return base + int64(world.Now()) }
	}
	svcs := make([]*svc.Service, w.n)
	for i := range svcs {
		opts := svc.Options{Mode: svc.ModeFor("eqaso")}
		if tr != nil {
			opts.Observer = tr.svcObserver(i)
		}
		s := svc.New(world.Runtime(i), c.Objects[i], opts)
		svcs[i] = s
		world.GoNode(fmt.Sprintf("svc-%d", i), i, func(*sim.Proc) { _ = s.Serve() })
	}

	var (
		warmLeft  = sessions
		live      = sessions
		sp        *span
		vStart    rt.Ticks
		vEnd      rt.Ticks
		statStart sim.Stats
	)
	crashNodes, crashAt := w.crashPlan(seed, sr.per)
	// The pacer is a simulator event that recurs every paceEvery of
	// virtual time and sleeps until the wall clock has caught up.
	var pace func()
	pace = func() {
		if live == 0 {
			return
		}
		ahead := time.Duration(world.Now()) * w.realPerD / time.Duration(rt.TicksPerD)
		if d := time.Until(t0.Add(ahead)); d > 0 {
			time.Sleep(d)
		}
		world.After(paceEvery, pace)
	}
	world.After(paceEvery, pace)
	// The last session through the warm-up barrier opens the measured
	// phase: real clocks start and the crashes are scheduled from here.
	openPhase := func() {
		r.setupS += time.Since(t0).Seconds()
		vStart = world.Now()
		statStart = world.Stats()
		for k, node := range crashNodes {
			world.CrashAt(node, vStart+crashAt[k])
		}
		if tr != nil {
			tr.beginMeasured(svcs)
		}
		sp = beginSpan()
	}
	for node := 0; node < w.n; node++ {
		for s := 0; s < w.sessions; s++ {
			sess := j*sessions + node*w.sessions + s
			c.ClientOn(node, svcs[node], func(o *harness.OpRunner) {
				defer func() { live-- }()
				do := func(i int, record bool) bool {
					v0, r0 := o.P.Now(), time.Now()
					var err error
					var snap []string
					scan := l.ops[i].kind == opScan
					if tr != nil {
						tr.setAdmitting(node, i)
					}
					if scan {
						snap, err = o.Scan()
					} else {
						err = o.UpdateValue(string(l.payload(i)))
					}
					if err != nil {
						if errors.Is(err, rt.ErrCrashed) && world.Crashed(node) {
							if record {
								r.crashPending++
							}
						} else {
							r.failed++
							r.load.problem("op %d: %v", i, err)
						}
						return false
					}
					if scan && len(snap) != w.n {
						r.load.problem("op %d: scan returned %d segments, want %d", i, len(snap), w.n)
					}
					if !record {
						return true
					}
					vEnd = o.P.Now()
					if scan {
						r.scan = append(r.scan, int64(time.Since(r0)))
						sr.scanV = append(sr.scanV, int64(vEnd-v0))
					} else {
						r.upd = append(r.upd, int64(time.Since(r0)))
						sr.updV = append(sr.updV, int64(vEnd-v0))
					}
					if tr != nil {
						tr.simOp(i, node, tr.tickOffset+int64(v0), tr.tickOffset+int64(vEnd))
					}
					return true
				}
				for k := 0; k < sr.warmPer; k++ {
					if !do(sess*sr.warmPer+k, false) {
						return
					}
				}
				warmLeft--
				if warmLeft == 0 {
					openPhase()
				}
				if err := o.P.WaitUntilGlobal("warm-up barrier", func() bool { return warmLeft == 0 }); err != nil {
					return
				}
				for k := 0; k < sr.per; k++ {
					if !do(l.warm+sess*sr.per+k, true) {
						return
					}
				}
			})
		}
	}
	// Not bound to a node, so that when it finishes every node's blocked
	// service worker re-evaluates and sees the close.
	world.Go("closer", func(p *sim.Proc) {
		_ = p.WaitUntilGlobal("sessions done", func() bool { return live == 0 })
		if sp != nil {
			sp.end(r)
			st := world.Stats()
			r.virt.Msgs += st.MsgsTotal - statStart.MsgsTotal
			r.virt.Events += st.Events - statStart.Events
			r.virt.Ticks += int64(vEnd - vStart)
			if tr != nil {
				tr.endMeasured(svcs, 0)
			}
		}
		for _, s := range svcs {
			s.Close()
		}
	})

	hist, err := c.Run()
	if err != nil {
		return err
	}
	if sp == nil {
		return errors.New("the warm-up never completed")
	}
	if tr != nil {
		tr.checkHistory(hist, w.n, monitor.DefaultWindow)
	}
	if rep := hist.CheckLinearizable(); !rep.OK {
		r.load.problem("world %d: history not linearizable: %s", j, rep.Violations[0])
	}
	if world.CrashedCount() != w.crashes {
		r.load.problem("world %d: %d nodes crashed, want %d", j, world.CrashedCount(), w.crashes)
	}
	return nil
}
