package svc_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"mpsnap/internal/engine"
	_ "mpsnap/internal/engine/all"
	"mpsnap/internal/harness"
	"mpsnap/internal/rt"
	"mpsnap/internal/svc"
	"mpsnap/internal/transport"
)

// TestAdaptiveWindowGrows: under sustained demand exceeding the window,
// the adaptive window grows (and stays within [MinWindow, MaxPending]),
// and the history stays linearizable.
func TestAdaptiveWindowGrows(t *testing.T) {
	const n, f, clients, each = 4, 1, 48, 2
	fx := build(n, f, 17, "eqaso", svc.Options{AdaptiveWindow: true})
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
	if st.WindowGrows == 0 {
		t.Errorf("WindowGrows = 0 with %d clients pressing a %d-wide initial window",
			clients, svc.MinWindow)
	}
	if st.Window < svc.MinWindow || st.Window > svc.DefaultMaxPending {
		t.Errorf("Window = %d, want within [%d, %d]", st.Window, svc.MinWindow, svc.DefaultMaxPending)
	}
	if st.ProtoUpdates >= st.Updates {
		t.Errorf("no amortization under adaptive window: %d proto for %d client updates",
			st.ProtoUpdates, st.Updates)
	}
}

// TestAdaptiveWindowShrinks exercises the resize logic directly on the
// drain path: bursts far above the window double it; sparse cycles far
// below a quarter window halve it back down to the floor.
func TestAdaptiveWindowShrinks(t *testing.T) {
	const n, f = 4, 1
	fx := build(n, f, 19, "eqaso", svc.Options{AdaptiveWindow: true})
	// Burst: far more concurrent updates than the initial window.
	const burst = 40
	for k := 0; k < burst; k++ {
		fx.client(0, func(o *harness.OpRunner) {
			if _, err := o.Update(); err != nil {
				t.Errorf("update: %v", err)
			}
		})
	}
	// Trickle: sequential single updates drain one at a time, each cycle
	// far under a quarter of the grown window.
	fx.client(0, func(o *harness.OpRunner) {
		for j := 0; j < 12; j++ {
			if _, err := o.Update(); err != nil {
				t.Errorf("update: %v", err)
				return
			}
		}
	})
	if _, err := fx.c.MustLinearizable(); err != nil {
		t.Fatal(err)
	}
	st := fx.svcs[0].Stats()
	if st.WindowGrows == 0 {
		t.Errorf("WindowGrows = 0 after a %d-client burst", burst)
	}
	if st.WindowShrinks == 0 {
		t.Errorf("WindowShrinks = 0 after a sequential trickle")
	}
	if st.Window < svc.MinWindow {
		t.Errorf("Window = %d fell below floor %d", st.Window, svc.MinWindow)
	}
}

// TestDirectWaitChan: channel-based completion on a real-time backend
// serves concurrent clients correctly (this is the loadgen configuration;
// run with -race in CI).
func TestDirectWaitChan(t *testing.T) {
	const n, f, clients, each = 4, 1, 8, 5
	net := transport.NewChanNet(transport.ChanConfig{N: n, F: f, D: time.Millisecond, Seed: 23})
	defer net.Close()
	services := make([]*svc.Service, n)
	var workers sync.WaitGroup
	for i := 0; i < n; i++ {
		r := net.Runtime(i)
		nd := engine.MustLookup("eqaso").New(r)
		net.SetHandler(i, nd)
		services[i] = svc.New(r, nd, svc.Options{DirectWait: true, AdaptiveWindow: true})
		workers.Add(1)
		go func(s *svc.Service) {
			defer workers.Done()
			if err := s.Serve(); err != nil {
				t.Errorf("Serve: %v", err)
			}
		}(services[i])
	}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		for c := 0; c < clients; c++ {
			i, c := i, c
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := 0; k < each; k++ {
					if err := services[i].Update([]byte(fmt.Sprintf("v%d.%d-%d", i, c, k))); err != nil {
						t.Errorf("update: %v", err)
						return
					}
					if _, err := services[i].Scan(); err != nil {
						t.Errorf("scan: %v", err)
						return
					}
				}
			}()
		}
	}
	wg.Wait()
	for _, s := range services {
		s.Close()
	}
	workers.Wait()
	st := services[0].Stats()
	if st.Updates != clients*each {
		t.Errorf("Updates = %d, want %d", st.Updates, clients*each)
	}
}

// TestDirectWaitCrashUnblocks: when the node crashes mid-load, every
// DirectWait caller must observe the crash instead of hanging on a
// channel no worker will ever close (the failAll drain).
func TestDirectWaitCrashUnblocks(t *testing.T) {
	const n, f, clients = 4, 1, 8
	net := transport.NewChanNet(transport.ChanConfig{N: n, F: f, D: time.Millisecond, Seed: 29})
	defer net.Close()
	services := make([]*svc.Service, n)
	var workers sync.WaitGroup
	for i := 0; i < n; i++ {
		r := net.Runtime(i)
		nd := engine.MustLookup("eqaso").New(r)
		net.SetHandler(i, nd)
		services[i] = svc.New(r, nd, svc.Options{DirectWait: true})
		workers.Add(1)
		go func(s *svc.Service) {
			defer workers.Done()
			_ = s.Serve() // exits with ErrCrashed after the crash below
		}(services[i])
	}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; ; k++ {
				err := services[0].Update([]byte(fmt.Sprintf("c%d", k)))
				if errors.Is(err, rt.ErrCrashed) {
					return // the expected outcome once the node dies
				}
				if err != nil {
					t.Errorf("unexpected update error: %v", err)
					return
				}
			}
		}()
	}
	time.Sleep(20 * time.Millisecond) // let the load reach steady state
	net.Crash(0)
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("DirectWait callers hung after crash: failAll drain did not run")
	}
	for i := 1; i < n; i++ {
		services[i].Close()
	}
	services[0].Close()
	workers.Wait()
}
