package sso_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"mpsnap/internal/byzaso"
	"mpsnap/internal/core"
	"mpsnap/internal/harness"
	"mpsnap/internal/rt"
	"mpsnap/internal/sim"
	"mpsnap/internal/sso"
)

func build(cfg sim.Config) *harness.Cluster {
	return harness.Build(cfg, func(r rt.Runtime) (rt.Handler, harness.Object) {
		nd := sso.New(r)
		return nd, nd
	})
}

func TestSequentiallyConsistentMixedWorkload(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(4)
		f := (n - 1) / 2
		c := build(sim.Config{N: n, F: f, Seed: seed})
		k := rng.Intn(f + 1)
		for victim := 0; victim < k; victim++ {
			c.W.CrashAt(victim, rt.Ticks(rng.Intn(20000)))
		}
		for i := 0; i < n; i++ {
			i := i
			c.Client(i, func(o *harness.OpRunner) {
				rng := rand.New(rand.NewSource(seed*53 + int64(i)))
				for k := 0; k < 5; k++ {
					var err error
					if rng.Intn(2) == 0 {
						_, err = o.Update()
					} else {
						_, err = o.Scan()
					}
					if err != nil {
						return
					}
					_ = o.P.Sleep(rt.Ticks(rng.Intn(2500)))
				}
			})
		}
		h, err := c.Run()
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if rep := h.CheckSequentiallyConsistent(); !rep.OK {
			t.Logf("seed %d: %v", seed, rep.Violations[0])
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestScanSendsNoMessages(t *testing.T) {
	// Quiesce after updates, then scan: the scanning node must send
	// nothing at all (the fast-scan property, Table I's O(1) row).
	n := 5
	c := build(sim.Config{N: n, F: 2, Seed: 7})
	type probe struct {
		before, after int64
		snap          []string
	}
	probes := make([]*probe, n)
	for i := 0; i < n; i++ {
		i := i
		c.Client(i, func(o *harness.OpRunner) {
			if _, err := o.Update(); err != nil {
				t.Errorf("update: %v", err)
				return
			}
			// Let the system quiesce, then scan.
			_ = o.P.Sleep(50 * rt.TicksPerD)
			p := &probe{before: c.W.Stats().SentByNode[i]}
			snap, err := o.Scan()
			if err != nil {
				t.Errorf("scan: %v", err)
				return
			}
			p.snap = snap
			p.after = c.W.Stats().SentByNode[i]
			probes[i] = p
		})
	}
	h, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep := h.CheckSequentiallyConsistent(); !rep.OK {
		t.Fatalf("history: %v", rep.Violations)
	}
	for i, p := range probes {
		if p == nil {
			t.Fatalf("probe %d missing", i)
		}
		if p.after != p.before {
			t.Fatalf("node %d sent %d messages during a fast scan", i, p.after-p.before)
		}
	}
}

func TestScanIsInstant(t *testing.T) {
	// Scans complete in zero virtual time (O(1), no waiting).
	c := build(sim.Config{N: 3, F: 1, Seed: 9})
	c.Client(0, func(o *harness.OpRunner) {
		if _, err := o.Update(); err != nil {
			t.Errorf("update: %v", err)
			return
		}
		start := o.P.Now()
		if _, err := o.Scan(); err != nil {
			t.Errorf("scan: %v", err)
			return
		}
		if d := o.P.Now() - start; d != 0 {
			t.Errorf("scan took %d ticks of virtual time, want 0", d)
		}
	})
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestScanSeesOwnUpdates(t *testing.T) {
	// S2's end-to-end shape: after UPDATE(v) completes, the same node's
	// SCAN must return v — even though the scan is purely local.
	c := build(sim.Config{N: 5, F: 2, Seed: 4})
	for i := 0; i < 5; i++ {
		i := i
		c.Client(i, func(o *harness.OpRunner) {
			for k := 0; k < 4; k++ {
				v, err := o.Update()
				if err != nil {
					t.Errorf("update: %v", err)
					return
				}
				snap, err := o.Scan()
				if err != nil {
					t.Errorf("scan: %v", err)
					return
				}
				if snap[i] != v {
					t.Errorf("node %d scan sees %q in own segment, want %q", i, snap[i], v)
				}
			}
		})
	}
	h, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep := h.CheckSequentiallyConsistent(); !rep.OK {
		t.Fatalf("history: %v", rep.Violations)
	}
}

func TestSSONotNecessarilyLinearizable(t *testing.T) {
	// SSO trades atomicity for fast scans: a never-updating node's local
	// view can lag behind a completed remote update. Sequential
	// consistency must hold regardless. (We don't assert the history is
	// NOT linearizable — it often is — only that staleness is possible
	// and still sequentially consistent.)
	c := build(sim.Config{N: 3, F: 1, Seed: 5})
	done := make(chan struct{}, 1)
	c.Client(0, func(o *harness.OpRunner) {
		if err := o.UpdateValue("x"); err != nil {
			t.Errorf("update: %v", err)
		}
		done <- struct{}{}
	})
	var sawStale bool
	c.Client(1, func(o *harness.OpRunner) {
		if err := o.P.WaitUntil("update done", func() bool { return len(done) > 0 }); err != nil {
			return
		}
		snap, err := o.Scan()
		if err != nil {
			t.Errorf("scan: %v", err)
			return
		}
		if snap[0] == "" {
			sawStale = true // allowed for SSO, forbidden for ASO
		}
	})
	h, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep := h.CheckSequentiallyConsistent(); !rep.OK {
		t.Fatalf("history: %v", rep.Violations)
	}
	t.Logf("stale read observed: %v (both outcomes are sequentially consistent)", sawStale)
}

func TestByzantineSSO(t *testing.T) {
	n, f := 7, 2
	c := harness.Build(sim.Config{N: n, F: f, Seed: 6}, func(r rt.Runtime) (rt.Handler, harness.Object) {
		nd := sso.NewByzantine(r)
		return nd, nd
	})
	for i := 0; i < f; i++ {
		c.W.CrashAt(i, 0) // silent Byzantine
	}
	for i := f; i < n; i++ {
		i := i
		c.Client(i, func(o *harness.OpRunner) {
			for k := 0; k < 3; k++ {
				v, err := o.Update()
				if err != nil {
					t.Errorf("update: %v", err)
					return
				}
				snap, err := o.Scan()
				if err != nil {
					t.Errorf("scan: %v", err)
					return
				}
				if snap[i] != v {
					t.Errorf("node %d misses own value", i)
				}
			}
		})
	}
	h, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep := h.CheckSequentiallyConsistent(); !rep.OK {
		t.Fatalf("history: %v", rep.Violations)
	}
}

// byzLiar wraps an honest Byzantine-SSO node but answers readTag queries
// with absurd tags and sprays HAVEs for nonexistent values.
type byzLiar struct {
	inner rt.Handler
	r     rt.Runtime
	spam  int
}

func (b *byzLiar) HandleMessage(src int, m rt.Message) {
	if q, ok := m.(byzaso.MsgReadTag); ok {
		b.r.Send(src, byzaso.MsgReadAck{ReqID: q.ReqID, Tag: 1 << 40})
		return
	}
	if b.spam < 40 {
		b.spam++
		b.r.Broadcast(byzaso.MsgHave{TS: core.Timestamp{Tag: core.Tag(500 + b.spam), Writer: src}})
	}
	b.inner.HandleMessage(src, m)
}

func TestByzantineSSOUnderActiveAdversary(t *testing.T) {
	n, f := 7, 2
	c := harness.Build(sim.Config{N: n, F: f, Seed: 31}, func(r rt.Runtime) (rt.Handler, harness.Object) {
		nd := sso.NewByzantine(r)
		if r.ID() < f {
			return &byzLiar{inner: nd, r: r}, nd
		}
		return nd, nd
	})
	for i := f; i < n; i++ {
		i := i
		c.Client(i, func(o *harness.OpRunner) {
			for k := 0; k < 2; k++ {
				v, err := o.Update()
				if err != nil {
					t.Errorf("update: %v", err)
					return
				}
				snap, err := o.Scan()
				if err != nil {
					t.Errorf("scan: %v", err)
					return
				}
				if snap[i] != v {
					t.Errorf("node %d misses own value under attack", i)
				}
			}
		})
	}
	h, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep := h.CheckSequentiallyConsistent(); !rep.OK {
		t.Fatalf("history: %v", rep.Violations)
	}
}

func TestUpdateLatencyMatchesASO(t *testing.T) {
	// Table I: SSO-Fast-Scan's UPDATE has the same complexity as EQ-ASO.
	// Failure-free with constant delays the update stays within the same
	// constant budget.
	c := build(sim.Config{N: 9, F: 4, Seed: 8, Delay: sim.Constant{Ticks: rt.TicksPerD}})
	for i := 0; i < 9; i++ {
		c.Client(i, func(o *harness.OpRunner) {
			for k := 0; k < 2; k++ {
				if _, err := o.Update(); err != nil {
					t.Errorf("update: %v", err)
					return
				}
			}
		})
	}
	h, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	st := harness.Latencies(h)
	if st.WorstUpdate > 20 {
		t.Fatalf("SSO update worst latency %.1fD exceeds constant budget", st.WorstUpdate)
	}
	if rep := h.CheckSequentiallyConsistent(); !rep.OK {
		t.Fatalf("history: %v", rep.Violations)
	}
}
