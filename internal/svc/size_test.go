package svc

import (
	"sync"
	"testing"
	"time"
	"unsafe"

	"mpsnap/internal/transport"
)

// TestRequestKeepsItsSizeClass: an operation admitted from a client thread
// allocates one Ticket, which holds its request, in the 128-byte malloc
// class; one admitted from a handler allocates a bare request, 104 bytes,
// in the 112-byte class. One more word would move either up a class.
func TestRequestKeepsItsSizeClass(t *testing.T) {
	if got := unsafe.Sizeof(request{}); got > 112 {
		t.Errorf("request is %d bytes, want <= 112", got)
	}
	if got := unsafe.Sizeof(Ticket{}); got > 128 {
		t.Errorf("Ticket is %d bytes, want <= 128", got)
	}
}

// TestParkedUpdateAllocations: an update whose client parks until it is
// resolved costs three allocations: the ticket (which is the request and
// holds the admission verdict), the admission closure, and Wait's
// predicate. The admission predicate is built once, the runtime's waiter
// record is pooled and queue growth amortizes below one. A stand-in
// worker takes the queue in one critical section and resolves it in a
// later one, so every Wait parks.
func TestParkedUpdateAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop records")
	}
	net := transport.NewChanNet(transport.ChanConfig{N: 1, F: 0, D: time.Second})
	defer net.Close()
	r := net.Runtime(0)
	s := New(r, nil, Options{})
	var batch []*request
	ready := func() bool { return len(s.q) > 0 || s.closed }
	take := func() { batch, s.q = s.q, batch[:0] }
	resolveAll := func() {
		for _, req := range batch {
			s.resolve(req)
		}
	}
	stopped := make(chan struct{})
	go func() {
		defer close(stopped)
		for r.WaitUntilThen("worker", ready, take) == nil && len(batch) > 0 {
			r.Atomic(resolveAll)
		}
	}()
	defer func() { s.Close(); <-stopped }()
	payload := []byte("v")
	if got := testing.AllocsPerRun(1000, func() {
		tk, err := s.UpdateAsync(payload)
		if err == nil {
			err = tk.Wait()
		}
		if err != nil {
			t.Fatal(err)
		}
	}); got > 3 {
		t.Errorf("a parked UpdateAsync costs %v allocations, want <= 3", got)
	}
}

// oneSegment is a single-writer object with no protocol behind it.
type oneSegment struct{ last []byte }

func (o *oneSegment) Update(p []byte) error   { o.last = p; return nil }
func (o *oneSegment) Scan() ([][]byte, error) { return [][]byte{o.last}, nil }

// TestServeDropsItsBuffers: the queue is double-buffered and the worker
// reuses a scratch slice for scans, so each keeps the size of its busiest
// cycle; once Serve returns, the service holds none of them.
func TestServeDropsItsBuffers(t *testing.T) {
	net := transport.NewChanNet(transport.ChanConfig{N: 1, F: 0, D: 20 * time.Microsecond})
	defer net.Close()
	r := net.Runtime(0)
	s := New(r, &oneSegment{}, Options{})
	served := make(chan error, 1)
	go func() { served <- s.Serve() }()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 20; k++ {
				if err := s.Update([]byte("v")); err != nil {
					t.Error(err)
					return
				}
				if _, err := s.Scan(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	s.Close()
	if err := <-served; err != nil {
		t.Fatal(err)
	}
	var q, batch, scans int
	r.Atomic(func() { q, batch, scans = cap(s.q), cap(s.batch), cap(s.scans) })
	if q != 0 || batch != 0 || scans != 0 {
		t.Errorf("after Serve returned: queue cap %d, batch cap %d, scans cap %d; want all 0", q, batch, scans)
	}
}
