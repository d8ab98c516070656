package svc_test

import (
	"errors"
	"fmt"
	"testing"

	"mpsnap/internal/engine"
	_ "mpsnap/internal/engine/all"
	"mpsnap/internal/harness"
	"mpsnap/internal/rt"
	"mpsnap/internal/sim"
	"mpsnap/internal/svc"
)

// fixture is an n-node cluster with one svc.Service per node and a closer
// that drains the services once every client script has returned, so the
// simulation terminates instead of deadlocking on idle workers.
type fixture struct {
	c       *harness.Cluster
	svcs    []*svc.Service
	clients int
	done    int
	// front, if set, is what node's clients drive instead of the service.
	front func(node int) harness.Object
}

func build(n, f int, seed int64, alg string, opts svc.Options) *fixture {
	fx := &fixture{}
	fx.c = harness.Build(sim.Config{N: n, F: f, Seed: seed}, func(r rt.Runtime) (rt.Handler, harness.Object) {
		nd := engine.MustLookup(alg).New(r)
		return nd, nd
	})
	fx.svcs = make([]*svc.Service, n)
	for i := 0; i < n; i++ {
		s := svc.New(fx.c.W.Runtime(i), fx.c.Objects[i], opts)
		fx.svcs[i] = s
		fx.c.W.GoNode(fmt.Sprintf("svc-%d", i), i, func(p *sim.Proc) { _ = s.Serve() })
	}
	fx.c.W.Go("svc-closer", func(p *sim.Proc) {
		_ = p.WaitUntilGlobal("all clients done", func() bool { return fx.done == fx.clients })
		for _, s := range fx.svcs {
			s.Close()
		}
	})
	return fx
}

// client spawns a client thread through node's service; completion is
// tracked (even on error paths) so the closer knows when to drain.
func (fx *fixture) client(node int, script func(o *harness.OpRunner)) {
	fx.clients++
	var obj harness.Object = fx.svcs[node]
	if fx.front != nil {
		obj = fx.front(node)
	}
	fx.c.ClientOn(node, obj, func(o *harness.OpRunner) {
		defer func() { fx.done++ }()
		script(o)
	})
}

// TestUpdateCoalescing: many concurrent clients' updates commit through
// far fewer protocol updates, and the history stays linearizable.
func TestUpdateCoalescing(t *testing.T) {
	const n, f, clients, each = 4, 1, 8, 3
	fx := build(n, f, 11, "eqaso", svc.Options{})
	for k := 0; k < clients; k++ {
		fx.client(0, func(o *harness.OpRunner) {
			for j := 0; j < each; j++ {
				if _, err := o.Update(); err != nil {
					t.Errorf("update: %v", err)
					return
				}
			}
		})
	}
	if _, err := fx.c.MustLinearizable(); err != nil {
		t.Fatal(err)
	}
	st := fx.svcs[0].Stats()
	if st.Updates != clients*each {
		t.Fatalf("Updates = %d, want %d", st.Updates, clients*each)
	}
	if st.ProtoUpdates >= st.Updates {
		t.Errorf("no amortization: %d protocol updates for %d client updates", st.ProtoUpdates, st.Updates)
	}
	if st.MaxBatch < 2 {
		t.Errorf("MaxBatch = %d, want ≥ 2", st.MaxBatch)
	}
}

// TestScanSharing: concurrent scans are answered by fewer protocol scans.
func TestScanSharing(t *testing.T) {
	const n, f, clients, each = 4, 1, 8, 3
	fx := build(n, f, 12, "eqaso", svc.Options{})
	for k := 0; k < clients; k++ {
		fx.client(0, func(o *harness.OpRunner) {
			if _, err := o.Update(); err != nil {
				t.Errorf("update: %v", err)
				return
			}
			for j := 0; j < each; j++ {
				if _, err := o.Scan(); err != nil {
					t.Errorf("scan: %v", err)
					return
				}
			}
		})
	}
	if _, err := fx.c.MustLinearizable(); err != nil {
		t.Fatal(err)
	}
	st := fx.svcs[0].Stats()
	if st.Scans != clients*each {
		t.Fatalf("Scans = %d, want %d", st.Scans, clients*each)
	}
	if st.ProtoScans >= st.Scans {
		t.Errorf("no sharing: %d protocol scans for %d client scans", st.ProtoScans, st.Scans)
	}
}

// TestSerializeBaseline: with Serialize the worker issues exactly one
// protocol operation per client operation (the benchmark baseline).
func TestSerializeBaseline(t *testing.T) {
	const n, f, clients = 4, 1, 4
	fx := build(n, f, 13, "eqaso", svc.Options{Serialize: true})
	for k := 0; k < clients; k++ {
		fx.client(0, func(o *harness.OpRunner) {
			for j := 0; j < 2; j++ {
				if _, err := o.Update(); err != nil {
					t.Errorf("update: %v", err)
					return
				}
			}
			if _, err := o.Scan(); err != nil {
				t.Errorf("scan: %v", err)
			}
		})
	}
	if _, err := fx.c.MustLinearizable(); err != nil {
		t.Fatal(err)
	}
	st := fx.svcs[0].Stats()
	if st.ProtoUpdates != st.Updates || st.ProtoScans != st.Scans {
		t.Errorf("serialize must be 1:1, got %d/%d updates, %d/%d scans",
			st.ProtoUpdates, st.Updates, st.ProtoScans, st.Scans)
	}
	if st.MaxBatch > 1 {
		t.Errorf("MaxBatch = %d in serialize mode", st.MaxBatch)
	}
}

// TestRejectPolicyOverload: with a tiny queue and PolicyReject, the
// overflow client fails fast with ErrOverloaded while admitted ones
// commit. The worker's start is delayed so the admission order (and hence
// which client overflows) is deterministic.
func TestRejectPolicyOverload(t *testing.T) {
	const n, f = 3, 1
	c := harness.Build(sim.Config{N: n, F: f, Seed: 21}, func(r rt.Runtime) (rt.Handler, harness.Object) {
		nd := engine.MustLookup("eqaso").New(r)
		return nd, nd
	})
	s := svc.New(c.W.Runtime(0), c.Objects[0], svc.Options{MaxPending: 2, Policy: svc.PolicyReject})
	c.W.GoNode("svc-0", 0, func(p *sim.Proc) {
		_ = p.Sleep(5 * rt.TicksPerD) // let the queue fill first
		_ = s.Serve()
	})
	errs := make([]error, 3)
	done := 0
	for k := 0; k < 3; k++ {
		k := k
		c.ClientOn(0, s, func(o *harness.OpRunner) {
			defer func() { done++ }()
			_, errs[k] = o.Update()
		})
	}
	c.W.Go("svc-closer", func(p *sim.Proc) {
		_ = p.WaitUntilGlobal("clients done", func() bool { return done == 3 })
		s.Close()
	})
	h, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if errs[0] != nil || errs[1] != nil {
		t.Errorf("admitted clients failed: %v, %v", errs[0], errs[1])
	}
	if !errors.Is(errs[2], svc.ErrOverloaded) {
		t.Errorf("overflow client got %v, want ErrOverloaded", errs[2])
	}
	st := s.Stats()
	if st.Rejected != 1 || st.Updates != 2 {
		t.Errorf("stats = %+v, want Rejected=1 Updates=2", st)
	}
	if rep := h.CheckLinearizable(); !rep.OK {
		t.Errorf("history not linearizable: %v", rep.Violations)
	}
}

// TestBlockPolicyBackpressure: with PolicyBlock a full queue parks callers
// instead of failing them; every operation eventually commits.
func TestBlockPolicyBackpressure(t *testing.T) {
	const n, f = 3, 1
	c := harness.Build(sim.Config{N: n, F: f, Seed: 22}, func(r rt.Runtime) (rt.Handler, harness.Object) {
		nd := engine.MustLookup("eqaso").New(r)
		return nd, nd
	})
	s := svc.New(c.W.Runtime(0), c.Objects[0], svc.Options{MaxPending: 1, Policy: svc.PolicyBlock})
	c.W.GoNode("svc-0", 0, func(p *sim.Proc) {
		_ = p.Sleep(5 * rt.TicksPerD)
		_ = s.Serve()
	})
	done := 0
	for k := 0; k < 3; k++ {
		c.ClientOn(0, s, func(o *harness.OpRunner) {
			defer func() { done++ }()
			if _, err := o.Update(); err != nil {
				t.Errorf("update: %v", err)
			}
		})
	}
	c.W.Go("svc-closer", func(p *sim.Proc) {
		_ = p.WaitUntilGlobal("clients done", func() bool { return done == 3 })
		s.Close()
	})
	h, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Updates != 3 || st.Rejected != 0 {
		t.Errorf("stats = %+v, want Updates=3 Rejected=0", st)
	}
	if rep := h.CheckLinearizable(); !rep.OK {
		t.Errorf("history not linearizable: %v", rep.Violations)
	}
}

// TestClosedRejectsNewRequests: after Close, new operations fail with
// ErrClosed and Serve returns nil (clean drain).
func TestClosedRejectsNewRequests(t *testing.T) {
	w := sim.New(sim.Config{N: 3, F: 1, Seed: 23})
	nd := engine.MustLookup("eqaso").New(w.Runtime(0))
	w.SetHandler(0, nd)
	s := svc.New(w.Runtime(0), nd, svc.Options{})
	w.GoNode("svc-0", 0, func(p *sim.Proc) {
		if err := s.Serve(); err != nil {
			t.Errorf("Serve after close = %v, want nil", err)
		}
	})
	w.GoNode("cli", 0, func(p *sim.Proc) {
		s.Close()
		s.Close() // idempotent
		if err := s.Update([]byte("x")); !errors.Is(err, svc.ErrClosed) {
			t.Errorf("Update after close = %v, want ErrClosed", err)
		}
		if _, err := s.Scan(); !errors.Is(err, svc.ErrClosed) {
			t.Errorf("Scan after close = %v, want ErrClosed", err)
		}
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestCloseDrainsQueue: requests admitted before Close are still served.
func TestCloseDrainsQueue(t *testing.T) {
	const n, f = 3, 1
	c := harness.Build(sim.Config{N: n, F: f, Seed: 24}, func(r rt.Runtime) (rt.Handler, harness.Object) {
		nd := engine.MustLookup("eqaso").New(r)
		return nd, nd
	})
	s := svc.New(c.W.Runtime(0), c.Objects[0], svc.Options{})
	c.W.GoNode("svc-0", 0, func(p *sim.Proc) {
		_ = p.Sleep(5 * rt.TicksPerD) // queue fills, then Close lands, then we drain
		if err := s.Serve(); err != nil {
			t.Errorf("Serve = %v", err)
		}
	})
	for k := 0; k < 3; k++ {
		c.ClientOn(0, s, func(o *harness.OpRunner) {
			if _, err := o.Update(); err != nil {
				t.Errorf("queued update after close: %v", err)
			}
		})
	}
	c.W.Go("early-closer", func(p *sim.Proc) {
		_ = p.Sleep(2 * rt.TicksPerD) // after admission, before the worker starts
		s.Close()
	})
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Updates != 3 {
		t.Errorf("Updates = %d, want 3 (drained)", st.Updates)
	}
}

// TestCrashMidBatch: the node crashes while a coalesced batch is in
// flight; its waiting clients observe rt.ErrCrashed, their operations stay
// pending, and the overall history is still linearizable.
func TestCrashMidBatch(t *testing.T) {
	const n, f = 4, 1
	fx := build(n, f, 25, "eqaso", svc.Options{})
	fx.c.W.CrashAt(0, 3*rt.TicksPerD)
	crashed := 0
	for k := 0; k < 4; k++ {
		fx.client(0, func(o *harness.OpRunner) {
			for j := 0; j < 5; j++ {
				if _, err := o.Update(); err != nil {
					if errors.Is(err, rt.ErrCrashed) {
						crashed++
					}
					return
				}
			}
		})
	}
	// A surviving node keeps scanning so the post-crash world is observed.
	fx.client(1, func(o *harness.OpRunner) {
		for j := 0; j < 4; j++ {
			if _, err := o.Update(); err != nil {
				t.Errorf("survivor update: %v", err)
				return
			}
			if _, err := o.Scan(); err != nil {
				t.Errorf("survivor scan: %v", err)
				return
			}
		}
	})
	h, err := fx.c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if crashed == 0 {
		t.Error("no client observed the crash (batch not in flight at crash time?)")
	}
	if rep := h.CheckLinearizable(); !rep.OK {
		t.Errorf("history not linearizable: %v", rep.Violations)
	}
}

// TestSSOSequentialMode: concurrent clients through a ModeSequential
// service over the SSO still produce a sequentially consistent history,
// and updates still amortize.
func TestSSOSequentialMode(t *testing.T) {
	const n, f, clients = 4, 1, 4
	fx := build(n, f, 26, "sso", svc.Options{Mode: svc.ModeFor("sso")})
	for i := 0; i < n; i++ {
		for k := 0; k < clients; k++ {
			fx.client(i, func(o *harness.OpRunner) {
				for j := 0; j < 3; j++ {
					if _, err := o.Update(); err != nil {
						t.Errorf("update: %v", err)
						return
					}
					if _, err := o.Scan(); err != nil {
						t.Errorf("scan: %v", err)
						return
					}
				}
			})
		}
	}
	h, err := fx.c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep := h.CheckSequentiallyConsistent(); !rep.OK {
		t.Fatalf("history not sequentially consistent: %v", rep.Violations)
	}
	var proto, ops int64
	for _, s := range fx.svcs {
		st := s.Stats()
		proto += st.ProtoUpdates
		ops += st.Updates
	}
	if proto >= ops {
		t.Errorf("no amortization under ModeSequential: %d protocol updates for %d client updates", proto, ops)
	}
}

// TestModeFor maps algorithm names to serving modes.
func TestModeFor(t *testing.T) {
	if svc.ModeFor("sso") != svc.ModeSequential {
		t.Error("sso must serve sequentially")
	}
	if svc.ModeFor("eqaso") != svc.ModeAtomic || svc.ModeFor("byzaso") != svc.ModeAtomic {
		t.Error("linearizable objects serve atomically")
	}
	if svc.ModeAtomic.String() != "atomic" || svc.ModeSequential.String() != "sequential" {
		t.Error("mode names")
	}
}
