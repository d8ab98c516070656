package transport_test

import (
	"bufio"
	"fmt"
	"net"
	"sort"
	"sync"
	"testing"
	"time"

	"mpsnap/internal/rt"
	"mpsnap/internal/transport"
	"mpsnap/internal/wire"
)

// startRawMesh brings up an n-node TCP mesh with the given handlers
// installed (no protocol on top — the tests drive the transport
// directly). Reuses benchMsg from bench_test.go as the payload.
func startRawMesh(t *testing.T, handlers []rt.Handler) []*transport.TCPNode {
	t.Helper()
	nodes, err := transport.LoopbackMesh(len(handlers), transport.TCPConfig{D: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		for _, tn := range nodes {
			tn.Close()
		}
	})
	for i, h := range handlers {
		nodes[i].SetHandler(h)
	}
	return nodes
}

// fifoHandler asserts per-source FIFO delivery: each source's benchMsg
// sequence numbers must arrive in exactly the order they were sent.
type fifoHandler struct {
	mu        sync.Mutex
	next      map[int]int // src -> next expected Seq
	delivered int
	violation error
}

func (h *fifoHandler) HandleMessage(src int, msg rt.Message) {
	bm := msg.(benchMsg)
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.next == nil {
		h.next = map[int]int{}
	}
	if want := h.next[src]; bm.Seq != want && h.violation == nil {
		h.violation = fmt.Errorf("from src %d: got Seq %d, want %d", src, bm.Seq, want)
	}
	h.next[src] = bm.Seq + 1
	h.delivered++
}

func (h *fifoHandler) status() (int, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.delivered, h.violation
}

// TestTCPPerSourceFIFO is the property test for the inbound path: several
// peers and the node itself concurrently blast sequence-numbered messages
// at one node, and every source's sequence must be delivered gap-free and
// in order while each connection's reader hands what it has read to the
// handler in batches, cut wherever the next frame is not yet whole in its
// 64 KB read buffer — and the node's own link, which no socket carries,
// is held to the same property. Frames larger than that buffer, mixed
// with small ones, can never be whole in it, so they sit on exactly that
// boundary. Run with -race this also checks that a batch is safe to hand
// to the handler while the reader reuses its frame buffer.
func TestTCPPerSourceFIFO(t *testing.T) {
	const senders = 3
	const perSender = 2000
	sink := &fifoHandler{}
	handlers := make([]rt.Handler, senders+1)
	handlers[0] = sink
	for i := 1; i <= senders; i++ {
		handlers[i] = &fifoHandler{}
	}
	nodes := startRawMesh(t, handlers)

	large := make([]byte, 80<<10) // larger than the 64 KB read buffer
	var wg sync.WaitGroup
	for i := 0; i <= senders; i++ { // node 0 sends to itself too
		rtm := nodes[i].Runtime()
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Vary the payload size so frames straddle read-buffer
			// boundaries at unpredictable offsets.
			pad := []byte("0123456789abcdef0123456789abcdef")
			for seq := 0; seq < perSender; seq++ {
				p := pad[:seq%len(pad)]
				if seq%97 == 0 {
					p = large[:len(large)-seq%len(pad)]
				}
				rtm.Send(0, benchMsg{Seq: seq, Pad: p})
			}
		}()
	}
	wg.Wait()

	deadline := time.Now().Add(10 * time.Second)
	for {
		got, violation := sink.status()
		if violation != nil {
			t.Fatalf("FIFO violation: %v", violation)
		}
		if got == (senders+1)*perSender {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("delivered %d of %d messages", got, (senders+1)*perSender)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestTCPSendBatchCapStalledReader is the regression test for the
// pending-buffer cap: a receiver that stops reading lets the sender's
// socket back up, so the send loop's gather phase sees an always-hot
// queue. The batch must be cut at maxSendBatch and handed to the
// (blocking) write instead of gathering without bound, and when the
// reader resumes every frame must arrive intact and in order — the cap
// interacts with the redial invariant (pending is cleared only after a
// successful write), so this pins down both.
//
// The peer at index 1 is not a TCPNode but a raw listener the test
// controls, which is what makes the read stall possible.
func TestTCPSendBatchCapStalledReader(t *testing.T) {
	const msgs = 2000
	pad := make([]byte, 1024) // ~2MB total: well past maxSendBatch (64KB)

	fake, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer fake.Close()
	own, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addrs := []string{own.Addr().String(), fake.Addr().String()}

	type recvResult struct {
		seqs []int
		err  error
	}
	got := make(chan recvResult, 1)
	release := make(chan struct{})
	go func() {
		conn, err := fake.Accept()
		if err != nil {
			got <- recvResult{err: err}
			return
		}
		defer conn.Close()
		<-release // stall: accept the connection but read nothing yet
		r := bufio.NewReaderSize(conn, 64<<10)
		var buf []byte
		res := recvResult{}
		for len(res.seqs) < msgs {
			conn.SetReadDeadline(time.Now().Add(10 * time.Second))
			payload, err := wire.ReadFrame(r, buf, 0)
			if err != nil {
				res.err = err
				break
			}
			buf = payload
			msg, err := wire.Unmarshal(payload)
			if err != nil {
				res.err = err
				break
			}
			if _, ok := msg.(transport.Hello); ok {
				continue
			}
			res.seqs = append(res.seqs, msg.(benchMsg).Seq)
		}
		got <- res
	}()

	tn, err := transport.NewTCPNode(transport.TCPConfig{
		ID: 0, Addrs: addrs, F: 0, D: 5 * time.Millisecond, Listener: own,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tn.Close()
	tn.SetHandler(&fifoHandler{})

	rtm := tn.Runtime()
	for seq := 0; seq < msgs; seq++ {
		rtm.Send(1, benchMsg{Seq: seq, Pad: pad})
	}
	// Give the send loop time to gather against the stalled socket, then
	// let the reader drain.
	time.Sleep(200 * time.Millisecond)
	close(release)

	res := <-got
	if res.err != nil {
		t.Fatalf("receiver failed after %d messages: %v", len(res.seqs), res.err)
	}
	for i, seq := range res.seqs {
		if seq != i {
			t.Fatalf("position %d: got Seq %d, want %d (reordered or dropped under the batch cap)", i, seq, i)
		}
	}
}

// TestTCPSolitaryFrameNeedsNoTimer pins the send loop's liveness under
// the one batching rule: a frame with no follow-up traffic must still
// reach the peer — the batch is written when the queue is seen empty, not
// when a successor (that never comes) or a timer says so.
func TestTCPSolitaryFrameNeedsNoTimer(t *testing.T) {
	sink := &fifoHandler{}
	nodes := startRawMesh(t, []rt.Handler{sink, &fifoHandler{}})

	start := time.Now()
	nodes[1].Runtime().Send(0, benchMsg{Seq: 0, Pad: []byte("solo")})
	deadline := start.Add(5 * time.Second)
	for {
		if got, _ := sink.status(); got == 1 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("solitary frame never delivered: the send loop waited for more traffic")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestTCPEchoRoundNeedsNoTimer bounds what one request–reply round costs
// on an otherwise idle link: two solitary frames, so any wait-for-more in
// the send loop shows up twice. With the 5µs flush timer the median was
// ≈1.2ms (an idle P's timer is rounded up to a netpoll millisecond);
// written on queue-empty it is ≈30µs.
func TestTCPEchoRoundNeedsNoTimer(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("wall-clock latency bound")
	}
	const rounds = 200
	reply := make(chan struct{}, 1)
	var nodes []*transport.TCPNode
	nodes = startRawMesh(t, []rt.Handler{
		rt.HandlerFunc(func(int, rt.Message) { reply <- struct{}{} }),
		rt.HandlerFunc(func(src int, msg rt.Message) { nodes[1].Runtime().Send(src, msg) }),
	})

	rtts := make([]time.Duration, rounds)
	for i := range rtts {
		start := time.Now()
		nodes[0].Runtime().Send(1, benchMsg{Seq: i})
		select {
		case <-reply:
		case <-time.After(5 * time.Second):
			t.Fatalf("round %d: no reply", i)
		}
		rtts[i] = time.Since(start)
	}
	sort.Slice(rtts, func(i, j int) bool { return rtts[i] < rtts[j] })
	if p50 := rtts[rounds/2]; p50 >= 500*time.Microsecond {
		t.Errorf("median echo round = %v over %d rounds, want < 500µs", p50, rounds)
	}
}
