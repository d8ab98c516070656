package svc_test

import (
	"errors"
	"testing"

	"mpsnap/internal/rt"
	"mpsnap/internal/sim"
	"mpsnap/internal/svc"
)

// TestAdmitRefusesAtOnceAndThenRunsOnce: an in-domain admission never
// waits for room — a full, closed or dead queue refuses whatever Policy
// says, and a refused request's then never runs — while an admitted
// request's then runs exactly once whether its batch commits, its batch
// fails under a crash, or failAll sweeps it off the queue of a dead worker.
func TestAdmitRefusesAtOnceAndThenRunsOnce(t *testing.T) {
	fx := build(4, 1, 17, "eqaso", svc.Options{MaxPending: 2}) // PolicyBlock
	s, r := fx.svcs[0], fx.c.W.Runtime(0)
	type outcome struct {
		calls int
		err   error
	}
	var first, second, third outcome
	admit := func(o *outcome) (err error) {
		r.Atomic(func() {
			err = s.AdmitUpdate([]byte("x"), func(_ [][]byte, e error) { o.calls, o.err = o.calls+1, e })
		})
		return err
	}
	fx.clients++ // the driver below is the only client
	fx.c.W.Go("driver", func(p *sim.Proc) {
		defer func() { fx.done++ }()
		if err := admit(&first); err != nil {
			t.Errorf("first admission: %v", err)
		}
		if err := p.WaitUntilGlobal("first committed", func() bool { return first.calls > 0 }); err != nil {
			t.Error(err)
		}
		// The worker takes the second and is inside its protocol op; two
		// more fill the queue; the next is refused, not parked.
		if err := admit(&second); err != nil {
			t.Errorf("second admission: %v", err)
		}
		_ = p.Sleep(1)
		var queued [2]outcome
		for i := range queued {
			if err := admit(&queued[i]); err != nil {
				t.Errorf("queued admission %d: %v", i, err)
			}
		}
		if err := admit(&third); !errors.Is(err, svc.ErrOverloaded) {
			t.Errorf("admission to a full queue = %v, want ErrOverloaded", err)
		}
		if st := s.Stats(); st.Rejected != 1 || st.Updates != 4 || s.QueueLen() != 2 {
			t.Errorf("stats = %+v queue = %d, want Rejected=1 Updates=4 queue=2", st, s.QueueLen())
		}
		// The node dies: the batch in flight fails, failAll sweeps the queue.
		fx.c.W.Crash(0)
		_ = p.WaitUntilGlobal("queue swept", func() bool { return queued[1].calls > 0 })
		for i, o := range []outcome{second, queued[0], queued[1]} {
			if o.calls != 1 || !errors.Is(o.err, rt.ErrCrashed) {
				t.Errorf("request %d on the crashed node: then ran %d times with %v, want once with ErrCrashed", i, o.calls, o.err)
			}
		}
		if err := admit(&third); !errors.Is(err, rt.ErrCrashed) {
			t.Errorf("admission on a dead node = %v, want ErrCrashed", err)
		}
		fx.svcs[1].Close()
		var closedErr error
		fx.c.W.Runtime(1).Atomic(func() { _, closedErr = fx.svcs[1].AdmitScan(func([][]byte, error) { third.calls++ }) })
		if !errors.Is(closedErr, svc.ErrClosed) {
			t.Errorf("admission to a closed service = %v, want ErrClosed", closedErr)
		}
	})
	if _, err := fx.c.Run(); err != nil {
		t.Fatal(err)
	}
	if first.calls != 1 || first.err != nil {
		t.Errorf("committed request: then ran %d times with %v, want once with nil", first.calls, first.err)
	}
	if third.calls != 0 {
		t.Errorf("a refused request's then ran %d times", third.calls)
	}
}
