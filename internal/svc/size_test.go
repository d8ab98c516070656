package svc

import (
	"testing"
	"time"
	"unsafe"

	"mpsnap/internal/transport"
)

// TestRequestKeepsItsSizeClass: every queued operation allocates one
// request, 104 bytes, in the 112-byte malloc class; two more words would
// move every request to the 128-byte class.
func TestRequestKeepsItsSizeClass(t *testing.T) {
	if got := unsafe.Sizeof(request{}); got > 112 {
		t.Errorf("request is %d bytes, want <= 112", got)
	}
}

// TestParkedUpdateAllocations: an update whose client parks until it is
// resolved costs five allocations, one fewer than the per-request channel
// path's six: the request, the ticket, enqueue's verdict and admission
// closure, and await's predicate — the admission predicate is built once
// and the runtime's waiter record is pooled (queue growth amortizes below
// one). A stand-in worker takes the queue in one critical section and
// resolves it in a later one, so every Wait parks.
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
	}); got > 5 {
		t.Errorf("a parked UpdateAsync costs %v allocations, want <= 5", got)
	}
}
