package transport_test

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mpsnap/internal/baseline/delporte"
	"mpsnap/internal/baseline/laaso"
	"mpsnap/internal/baseline/storecollect"
	"mpsnap/internal/byzaso"
	"mpsnap/internal/eqaso"
	"mpsnap/internal/harness"
	"mpsnap/internal/history"
	"mpsnap/internal/rt"
	"mpsnap/internal/sso"
	"mpsnap/internal/transport"
)

type object interface {
	Update(payload []byte) error
	Scan() ([][]byte, error)
}

// TestAllAlgorithmsOverChanTransport: the same algorithms that pass the
// simulator conformance battery run over real goroutines, channels, and
// wall-clock delays — with genuine parallelism — and their histories stay
// consistent. This is the strongest evidence the rt abstraction didn't
// hide real concurrency bugs (run with -race in CI).
func TestAllAlgorithmsOverChanTransport(t *testing.T) {
	cases := []struct {
		name       string
		minNOver3F bool
		sso        bool
		mk         func(r rt.Runtime) (rt.Handler, object)
	}{
		{name: "eqaso", mk: func(r rt.Runtime) (rt.Handler, object) {
			nd := eqaso.New(r)
			return nd, nd
		}},
		{name: "sso", sso: true, mk: func(r rt.Runtime) (rt.Handler, object) {
			nd := sso.New(r)
			return nd, nd
		}},
		{name: "byzaso", minNOver3F: true, mk: func(r rt.Runtime) (rt.Handler, object) {
			nd := byzaso.New(r)
			return nd, nd
		}},
		{name: "delporte", mk: func(r rt.Runtime) (rt.Handler, object) {
			nd := delporte.New(r)
			return nd, nd
		}},
		{name: "storecollect", mk: func(r rt.Runtime) (rt.Handler, object) {
			nd := storecollect.New(r)
			return nd, nd
		}},
		{name: "laaso", mk: func(r rt.Runtime) (rt.Handler, object) {
			nd := laaso.New(r)
			return nd, nd
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			n, f := 4, 1
			if tc.minNOver3F {
				n, f = 4, 1 // 4 > 3·1
			}
			// CopyThrough: every message of every algorithm crosses the
			// internal/wire codec, so this battery also proves total codec
			// coverage with canonical (re-encodable) encodings.
			net := transport.NewChanNet(transport.ChanConfig{N: n, F: f, D: time.Millisecond, Seed: 7, CopyThrough: true})
			defer net.Close()
			objs := make([]object, n)
			rts := make([]rt.Runtime, n)
			for i := 0; i < n; i++ {
				rts[i] = net.Runtime(i)
				h, obj := tc.mk(rts[i])
				net.SetHandler(i, h)
				objs[i] = obj
			}
			rec := history.NewRecorder(n)
			var wg sync.WaitGroup
			for i := 0; i < n; i++ {
				i := i
				wg.Add(1)
				go func() {
					defer wg.Done()
					for k := 1; k <= 3; k++ {
						v := fmt.Sprintf("v%d-%d", i, k)
						p := rec.BeginUpdate(i, v, rts[i].Now())
						if err := objs[i].Update([]byte(v)); err != nil {
							t.Errorf("update: %v", err)
							return
						}
						p.End(rts[i].Now())
						ps := rec.BeginScan(i, rts[i].Now())
						snap, err := objs[i].Scan()
						if err != nil {
							t.Errorf("scan: %v", err)
							return
						}
						ps.EndScan(harness.SnapStrings(snap), rts[i].Now())
					}
				}()
			}
			wg.Wait()
			h := rec.History()
			if tc.sso {
				if rep := h.CheckSequentiallyConsistent(); !rep.OK {
					t.Fatalf("not sequentially consistent: %v", rep.Violations[0])
				}
				return
			}
			if rep := h.CheckLinearizable(); !rep.OK {
				t.Fatalf("not linearizable: %v", rep.Violations[0])
			}
		})
	}
}

// TestWaitUntilDeadlinePredicate: a predicate that reads the clock must
// come true on a node where nothing else happens — no message, no Atomic,
// no other waiter. Both transports re-evaluate parked predicates at least
// once per D; without that a routed call's timeout never fires on an idle
// node.
func TestWaitUntilDeadlinePredicate(t *testing.T) {
	const d = 2 * time.Millisecond
	cn := transport.NewChanNet(transport.ChanConfig{N: 1, D: d})
	defer cn.Close()
	mesh, err := transport.LoopbackMesh(1, transport.TCPConfig{D: d})
	if err != nil {
		t.Fatal(err)
	}
	defer mesh[0].Close()
	for name, r := range map[string]rt.Runtime{"chan": cn.Runtime(0), "tcp": mesh[0].Runtime()} {
		t.Run(name, func(t *testing.T) {
			deadline := r.Now() + 5*rt.TicksPerD
			done := make(chan error, 1)
			go func() {
				done <- rt.WaitUntil(r, "deadline", func() bool { return r.Now() >= deadline })
			}()
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(3 * time.Second):
				t.Fatal("still parked 3s after a 10ms deadline: nothing re-evaluates the predicate")
			}
		})
	}
}

// TestThenRunsInTheReleasingSection: a parked waiter is fired by the
// goroutine that makes its predicate true, inside that goroutine's critical
// section — its then has run by the time the Atomic that set the flag
// returns, rather than whenever the waiter next gets the lock.
func TestThenRunsInTheReleasingSection(t *testing.T) {
	cn := transport.NewChanNet(transport.ChanConfig{N: 1, D: time.Second})
	defer cn.Close()
	mesh, err := transport.LoopbackMesh(1, transport.TCPConfig{D: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer mesh[0].Close()
	for name, tc := range map[string]struct {
		r      rt.Runtime
		parked func() int
	}{
		"chan": {cn.Runtime(0), func() int { return cn.Parked(0) }},
		"tcp":  {mesh[0].Runtime(), mesh[0].Parked},
	} {
		t.Run(name, func(t *testing.T) {
			var flag bool
			var ran atomic.Bool
			done := make(chan error, 1)
			go func() {
				done <- tc.r.WaitUntilThen("flag", func() bool { return flag }, func() { ran.Store(true) })
			}()
			for tc.parked() == 0 {
				time.Sleep(time.Millisecond)
			}
			tc.r.Atomic(func() { flag = true })
			if !ran.Load() {
				t.Error("then had not run when the Atomic that made its predicate true returned")
			}
			if err := <-done; err != nil {
				t.Fatal(err)
			}
		})
	}
}
