package svc_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"mpsnap/internal/engine"
	_ "mpsnap/internal/engine/all"
	"mpsnap/internal/rt"
	"mpsnap/internal/svc"
	"mpsnap/internal/transport"
)

// TestParkedClientsOverChan: many clients per node parked on their requests
// over a real-time backend are each woken by the critical section that
// resolves them (this is the loadgen configuration; run with -race in CI).
func TestParkedClientsOverChan(t *testing.T) {
	const n, f, clients, each = 4, 1, 8, 5
	net := transport.NewChanNet(transport.ChanConfig{N: n, F: f, D: time.Millisecond, Seed: 23})
	defer net.Close()
	services := make([]*svc.Service, n)
	var workers sync.WaitGroup
	for i := 0; i < n; i++ {
		r := net.Runtime(i)
		nd := engine.MustLookup("eqaso").New(r)
		net.SetHandler(i, nd)
		services[i] = svc.New(r, nd, svc.Options{})
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

// TestCrashUnblocksParkedClients: when the node crashes mid-load, every
// client parked on its request observes the crash instead of hanging: the
// crash wakes the node's whole waiter list with rt.ErrCrashed.
func TestCrashUnblocksParkedClients(t *testing.T) {
	const n, f, clients = 4, 1, 8
	net := transport.NewChanNet(transport.ChanConfig{N: n, F: f, D: time.Millisecond, Seed: 29})
	defer net.Close()
	services := make([]*svc.Service, n)
	var workers sync.WaitGroup
	for i := 0; i < n; i++ {
		r := net.Runtime(i)
		nd := engine.MustLookup("eqaso").New(r)
		net.SetHandler(i, nd)
		services[i] = svc.New(r, nd, svc.Options{})
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
		t.Fatal("parked clients hung after the crash: the waiter list was not failed")
	}
	for i := 1; i < n; i++ {
		services[i].Close()
	}
	services[0].Close()
	workers.Wait()
}
