package transport_test

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"mpsnap/internal/eqaso"
	"mpsnap/internal/harness"
	"mpsnap/internal/history"
	"mpsnap/internal/rt"
	"mpsnap/internal/transport"
)

// runRealTimeWorkload drives an EQ-ASO cluster whose nodes expose real
// goroutine-based runtimes: every node updates and scans concurrently,
// and the recorded history must be linearizable.
func runRealTimeWorkload(t *testing.T, nodes []*eqaso.Node, now func(i int) rt.Ticks, n int) {
	t.Helper()
	rec := history.NewRecorder(n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 1; k <= 3; k++ {
				v := fmt.Sprintf("v%d-%d", i, k)
				p := rec.BeginUpdate(i, v, now(i))
				if err := nodes[i].Update([]byte(v)); err != nil {
					t.Errorf("node %d update: %v", i, err)
					return
				}
				p.End(now(i))
				ps := rec.BeginScan(i, now(i))
				snap, err := nodes[i].Scan()
				if err != nil {
					t.Errorf("node %d scan: %v", i, err)
					return
				}
				ps.EndScan(harness.SnapStrings(snap), now(i))
				if got := harness.SnapStrings(snap)[i]; got != v {
					t.Errorf("node %d scan misses own value: got %q want %q", i, got, v)
				}
			}
		}()
	}
	wg.Wait()
	h := rec.History()
	if rep := h.CheckLinearizable(); !rep.OK {
		t.Fatalf("real-time history not linearizable: %v", rep.Violations[0])
	}
}

func TestChanNetEQASO(t *testing.T) {
	const n, f = 4, 1
	net := transport.NewChanNet(transport.ChanConfig{N: n, F: f, D: time.Millisecond, Seed: 1})
	defer net.Close()
	nodes := make([]*eqaso.Node, n)
	for i := 0; i < n; i++ {
		nodes[i] = eqaso.New(net.Runtime(i))
		net.SetHandler(i, nodes[i])
	}
	runRealTimeWorkload(t, nodes, func(i int) rt.Ticks { return net.Runtime(i).Now() }, n)
}

func TestChanNetCrash(t *testing.T) {
	const n, f = 4, 1
	cnet := transport.NewChanNet(transport.ChanConfig{N: n, F: f, D: time.Millisecond, Seed: 2})
	defer cnet.Close()
	nodes := make([]*eqaso.Node, n)
	for i := 0; i < n; i++ {
		nodes[i] = eqaso.New(cnet.Runtime(i))
		cnet.SetHandler(i, nodes[i])
	}
	cnet.Crash(3)
	// A crashed node's operations fail; the rest keep working.
	if err := nodes[3].Update([]byte("x")); err == nil {
		t.Fatal("update on crashed node should fail")
	}
	if err := nodes[0].Update([]byte("a")); err != nil {
		t.Fatalf("update: %v", err)
	}
	snap, err := nodes[1].Scan()
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	if string(snap[0]) != "a" {
		t.Fatalf("scan = %v", harness.SnapStrings(snap))
	}
}

// TestChanNetIdleLinksHoldNoBuffers bounds what an unused cluster costs:
// link queues grow with use, so the 81 directed links of a 9-node net
// (the 3-shard × 3-node cluster topology) must not pre-allocate their
// full depth (that was 3 MB a link, 255 MB for this net).
func TestChanNetIdleLinksHoldNoBuffers(t *testing.T) {
	heap := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := heap()
	cnet := transport.NewChanNet(transport.ChanConfig{N: 9, F: 4})
	defer cnet.Close()
	after := heap()
	if after > before && after-before >= 16<<20 {
		t.Errorf("NewChanNet(N=9) retains %d MB before any message, want < 16", (after-before)>>20)
	}
}

// gateHandler blocks its first delivery until released, then records the
// order of everything delivered.
type gateHandler struct {
	entered, release chan struct{}
	seqs             []int
}

func (h *gateHandler) HandleMessage(src int, msg rt.Message) {
	if len(h.seqs) == 0 {
		close(h.entered)
		<-h.release
	}
	h.seqs = append(h.seqs, msg.(benchMsg).Seq)
}

// TestChanNetLinkDepthAndOrder pins the grown link queue to the contract
// of the fixed channel it replaced: 65,536 messages may wait behind the
// one being delivered, the next Send panics, and the backlog is delivered
// in order.
func TestChanNetLinkDepthAndOrder(t *testing.T) {
	const depth = 1 << 16
	cnet := transport.NewChanNet(transport.ChanConfig{N: 2, F: 0, D: time.Microsecond})
	defer cnet.Close()
	h := &gateHandler{entered: make(chan struct{}), release: make(chan struct{})}
	cnet.SetHandler(1, h)
	rtm := cnet.Runtime(0)
	rtm.Send(1, benchMsg{Seq: 0})
	<-h.entered
	for seq := 1; seq <= depth; seq++ {
		rtm.Send(1, benchMsg{Seq: seq})
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Errorf("Send past %d queued messages did not panic", depth)
			}
		}()
		rtm.Send(1, benchMsg{Seq: -1})
	}()
	close(h.release)

	var got []int
	for deadline := time.Now().Add(10 * time.Second); len(got) <= depth; {
		if time.Now().After(deadline) {
			t.Fatalf("delivered %d of %d messages", len(got), depth+1)
		}
		time.Sleep(time.Millisecond)
		// Handlers run under the receiving node's lock; so does Atomic.
		cnet.Runtime(1).Atomic(func() { got = append(got[:0], h.seqs...) })
	}
	for i, seq := range got {
		if seq != i {
			t.Fatalf("position %d: got Seq %d (reordered or dropped)", i, seq)
		}
	}
}

func TestTCPEQASO(t *testing.T) {
	if testing.Short() {
		t.Skip("tcp loopback test")
	}
	const n, f = 4, 1
	tnodes, err := transport.LoopbackMesh(n, transport.TCPConfig{F: f, D: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, tn := range tnodes {
			tn.Close()
		}
	}()
	nodes := make([]*eqaso.Node, n)
	for i, tn := range tnodes {
		nodes[i] = eqaso.New(tn.Runtime())
		tn.SetHandler(nodes[i])
	}
	runRealTimeWorkload(t, nodes, func(i int) rt.Ticks { return tnodes[i].Runtime().Now() }, n)
}
