package cluster

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"mpsnap/internal/engine"
	"mpsnap/internal/rt"
	"mpsnap/internal/sim"
	"mpsnap/internal/svc"
)

// within fails the test unless fn returns inside d (a hung routed call must
// fail the test, not the test binary's timeout).
func within(t *testing.T, d time.Duration, what string, fn func() error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- fn() }()
	select {
	case err := <-done:
		return err
	case <-time.After(d):
		t.Fatalf("%s still blocked after %v", what, d)
		return nil
	}
}

// TestRoutedOpsNeedNoRouterThread: a node runs its shard workers and
// nothing else — nobody calls ServeRouter — and a foreign-shard Update and
// Scan and a validated cut still complete: the handler admits the routed
// request and the contact's shard worker answers it. Handler-context
// admission is what only a real mutex can deadlock, hence the chan backend.
func TestRoutedOpsNeedNoRouterThread(t *testing.T) {
	m := ContiguousMap(2, 3, 1, 0)
	_, nodes, start := chanTopology(t, m, Config{Timeout: 200 * rt.TicksPerD})
	for id := range nodes {
		start(id)
	}
	nd := nodes[0] // a member of shard 0
	key := keysOn(nd, 1, 1)[0]
	val := Mark{Writer: "w0", Seq: 1}.Encode()
	if err := within(t, 5*time.Second, "routed update", func() error { return nd.Update(key, val) }); err != nil {
		t.Fatalf("routed update: %v", err)
	}
	var vals [][]byte
	err := within(t, 5*time.Second, "routed scan", func() (err error) { vals, err = nd.Scan(key); return })
	if err != nil {
		t.Fatalf("routed scan: %v", err)
	}
	found := false
	for _, v := range vals {
		found = found || bytes.Equal(v, val)
	}
	if !found {
		t.Errorf("routed scan: %q not in %q", val, vals)
	}
	var cut *Cut
	err = within(t, 5*time.Second, "cut", func() (err error) { cut, err = nd.GlobalScanClosed(); return })
	if err != nil {
		t.Fatalf("GlobalScanClosed: %v", err)
	}
	if vio := cut.Validate(); len(vio) > 0 {
		t.Errorf("cut violations: %v", vio)
	}
	if own, far := cut.Shards[0].Contact, cut.Shards[1].Contact; own != -1 || far < 3 {
		t.Errorf("cut contacts = %d, %d: want the node's own shard (-1) and a member of shard 1", own, far)
	}
}

// TestFullShardQueueRefusesAtOnce: a contact whose shard queue is full
// answers StatusErr from the handler instead of parking the request, so
// the caller fails over at once and the contact holds at most MaxPending
// requests. The contact's worker is started late to fill its queue.
func TestFullShardQueueRefusesAtOnce(t *testing.T) {
	const maxPending, extra = 4, 4
	m := ContiguousMap(2, 3, 1, 0)
	_, nodes, start := chanTopology(t, m, Config{
		Timeout:    20000 * rt.TicksPerD, // 20 s: a parked request must stay parked
		SvcOptions: svc.Options{MaxPending: maxPending},
	})
	// Node 0 routes shard 1's keys to node 3 first, then 4, then 5. Node 3
	// hosts its engine (the shard has its quorum) but serves no clients yet.
	for _, id := range []int{0, 1, 2, 4, 5} {
		start(id)
	}
	contact := nodes[3].Services()[0]
	keys := keysOn(nodes[0], 1, maxPending+extra)
	results := make(chan error, len(keys))
	update := func(k string) { go func() { results <- nodes[0].Update(k, []byte("v")) }() }

	for _, k := range keys[:maxPending] {
		update(k)
	}
	for deadline := time.Now().Add(5 * time.Second); contact.QueueLen() < maxPending; {
		if time.Now().After(deadline) {
			t.Fatalf("contact admitted %d of %d requests after 5s", contact.QueueLen(), maxPending)
		}
		time.Sleep(time.Millisecond)
	}

	// The queue is full: every further request is refused by the handler
	// and commits through the next member, long before any timeout.
	for _, k := range keys[maxPending:] {
		update(k)
	}
	for i := 0; i < extra; i++ {
		select {
		case err := <-results:
			if err != nil && !errors.Is(err, ErrNoContact) {
				t.Errorf("refused update: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%d of %d refused updates still blocked after 5s: the contact parked them", extra-i, extra)
		}
	}
	if st := contact.Stats(); st.Rejected != extra || st.Updates != maxPending {
		t.Errorf("contact stats = %+v, want Rejected=%d Updates=%d", st, extra, maxPending)
	}
	if got := contact.QueueLen(); got != maxPending {
		t.Errorf("contact holds %d requests, want %d", got, maxPending)
	}

	// The admitted ones were never lost: they commit, as one batch, once
	// the worker runs.
	start(3)
	for i := 0; i < maxPending; i++ {
		select {
		case err := <-results:
			if err != nil {
				t.Errorf("admitted update: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%d admitted updates still blocked 5s after the worker started", maxPending-i)
		}
	}
	if st := contact.Stats(); st.ProtoUpdates != 1 || st.MaxBatch != maxPending {
		t.Errorf("contact stats = %+v, want the %d admitted updates in one protocol UPDATE", st, maxPending)
	}
}

// TestUnhostedShardIsRefused: a routed request naming a shard the contact
// does not host is refused with StatusErr from the handler, one round trip
// after it was sent, and nothing is admitted into the shard the contact
// does host.
func TestUnhostedShardIsRefused(t *testing.T) {
	w, nodes := buildWorld(t, 2, 3, 1, 5)
	w.GoNode("client", 3, func(p *sim.Proc) {
		caller := nodes[3] // a member of shard 1
		key := keysOn(caller, 1, 1)[0]
		sent := w.Now()
		pc, msg := caller.beginCall(func(req uint64) rt.Message {
			return MsgUpdateReq{Req: req, Shard: 1, Key: key, Val: []byte("v")}
		})
		caller.cl.Send(0, msg) // node 0 hosts shard 0 only
		if err := caller.await("test: refusal", pc); err != nil {
			t.Errorf("await: %v", err)
			return
		}
		resp, ok := pc.resp.(MsgUpdateResp)
		if !ok || resp.Status != StatusErr {
			t.Errorf("response = %#v, want an MsgUpdateResp with StatusErr", pc.resp)
		}
		if took := w.Now() - sent; took > 2*rt.TicksPerD {
			t.Errorf("refusal took %d ticks, want one round trip (<= %d)", took, 2*rt.TicksPerD)
		}
	})
	closeAll(w, nodes, 400*rt.TicksPerD)
	if err := w.Run(); err != nil {
		t.Fatalf("sim: %v", err)
	}
	if got := nodes[0].Services()[0].Stats().Updates; got != 0 {
		t.Errorf("node 0 admitted %d updates, want 0", got)
	}
}

// slowUpdates puts a pause before every update, keeping a shard worker
// busy long enough for a message to arrive behind it.
type slowUpdates struct {
	svc.Object
	pause func() error
}

func (o slowUpdates) Update(p []byte) error {
	if err := o.pause(); err != nil {
		return err
	}
	return o.Object.Update(p)
}

// TestLocalAndRemoteCutShareOneScan: a cut of an owned shard and a routed
// cut of the same shard that land in one svc cycle are answered by one
// protocol SCAN — they are two scan requests in one queue, not two paths.
func TestLocalAndRemoteCutShareOneScan(t *testing.T) {
	var w *sim.World
	w, nodes := buildWorldWith(t, 2, 3, 1, 3, func(r rt.Runtime) (rt.Handler, svc.Object) {
		e := engine.MustLookup("eqaso").New(r)
		return e, slowUpdates{e, func() error { return w.Sleep(3 * rt.TicksPerD) }}
	})
	own := nodes[0].Services()[0] // node 0's front of shard 0
	cuts := make(map[int]*Cut)
	w.GoNode("writer", 0, func(p *sim.Proc) {
		// Occupies node 0's shard-0 worker for more than 3D from tick 0.
		if err := nodes[0].Update(keysOn(nodes[0], 0, 1)[0], []byte("v")); err != nil {
			t.Errorf("update: %v", err)
		}
	})
	// Node 0 cuts its own shard 0; node 3 (shard 1) routes its cut of shard
	// 0 to members[3%3] = node 0, where it arrives within one D.
	for _, id := range []int{0, 3} {
		w.GoNode("cutter", id, func(p *sim.Proc) {
			_ = p.Sleep(1)
			cut, err := nodes[id].GlobalScan()
			if err != nil {
				t.Errorf("node %d: GlobalScan: %v", id, err)
				return
			}
			cuts[id] = cut
		})
	}
	closeAll(w, nodes, 400*rt.TicksPerD)
	if err := w.Run(); err != nil {
		t.Fatalf("sim: %v", err)
	}
	if t.Failed() {
		return
	}
	if c := cuts[0].Shards[0].Contact; c != -1 {
		t.Fatalf("node 0's cut of shard 0 went to node %d, want its own queue", c)
	}
	if c := cuts[3].Shards[0].Contact; c != 0 {
		t.Fatalf("node 3's cut of shard 0 went to node %d, want node 0", c)
	}
	if st := own.Stats(); st.Scans != 2 || st.ProtoScans != 1 {
		t.Errorf("node 0 shard 0: %d scans admitted, %d protocol scans: want 2 sharing 1", st.Scans, st.ProtoScans)
	}
	if a, b := cuts[0].Shards[0], cuts[3].Shards[0]; a.ScanEnd != b.ScanEnd {
		t.Errorf("the two cuts resolved at %d and %d, want one resolution", a.ScanEnd, b.ScanEnd)
	}
}
