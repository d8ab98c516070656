package transport_test

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mpsnap/internal/mux"
	"mpsnap/internal/rt"
	"mpsnap/internal/transport"
	"mpsnap/internal/wire"
)

// benchMsg is the test-local payload the transport benchmarks ship: a
// sequence number plus a small body, registered in the test tag range.
type benchMsg struct {
	Seq int
	Pad []byte
}

func (benchMsg) Kind() string { return "benchMsg" }

func init() {
	wire.Register(wire.Codec{
		Tag: wire.TestTagBase + 0x10, Proto: benchMsg{},
		Encode: func(b *wire.Buffer, m rt.Message) {
			bm := m.(benchMsg)
			b.PutInt(bm.Seq)
			b.PutBytes(bm.Pad)
		},
		Decode: func(d *wire.Decoder) (rt.Message, error) {
			return benchMsg{Seq: d.Int(), Pad: d.Bytes()}, d.Err()
		},
		Gen: func(rng *rand.Rand) rt.Message {
			return benchMsg{Seq: rng.Intn(1 << 20), Pad: []byte("pad")}
		},
	})
}

// countingHandler counts deliveries (the protocol side of the benchmark
// mesh does no work, so the measured cost is the transport's own).
type countingHandler struct{ n atomic.Int64 }

func (h *countingHandler) HandleMessage(src int, msg rt.Message) { h.n.Add(1) }

// benchPair builds a two-node mesh and returns the sender runtime plus
// the receiver's delivery counter.
func benchPair(b *testing.B) (rt.Runtime, *countingHandler, func()) {
	b.Helper()
	nodes, err := transport.LoopbackMesh(2, transport.TCPConfig{D: 5 * time.Millisecond})
	if err != nil {
		b.Fatal(err)
	}
	h := &countingHandler{}
	nodes[0].SetHandler(h)
	nodes[1].SetHandler(&countingHandler{})
	return nodes[1].Runtime(), h, func() {
		for _, tn := range nodes {
			tn.Close()
		}
	}
}

// BenchmarkTCPDeliver ships b.N messages from node 1 to node 0 and waits
// for the last delivery, reporting allocations per delivered message on
// the transport path: coalesced writes, pooled buffers, and delivery in
// batches by the goroutine that read them. The envelope case is the
// cluster's shape, every shard message wrapped in a mux.Envelope.
func BenchmarkTCPDeliver(b *testing.B) {
	pad := []byte("0123456789abcdef0123456789abcdef") // 32B body
	for _, bc := range []struct {
		name string
		msg  func(seq int) rt.Message
	}{
		{"plain", func(seq int) rt.Message { return benchMsg{Seq: seq, Pad: pad} }},
		{"envelope", func(seq int) rt.Message {
			return mux.Envelope{Channel: "shard/0", Msg: benchMsg{Seq: seq, Pad: pad}}
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			rtm, h, closeAll := benchPair(b)
			defer closeAll()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// The outbound queue is bounded; pace the sender against the
				// receiver so the benchmark measures steady state, not overflow.
				for int(h.n.Load()) < i-4096 {
					time.Sleep(10 * time.Microsecond)
				}
				rtm.Send(0, bc.msg(i))
			}
			for int(h.n.Load()) < b.N {
				time.Sleep(50 * time.Microsecond)
			}
			b.StopTimer()
		})
	}
}

// BenchmarkRelease is the price of the waiter list: ns per Atomic on a node
// with 0, 64 and 512 parked waiters whose predicates are false, each of
// which every critical section's release evaluates once. Each waiter reads
// its own heap object, the shape of a svc client parked on its request.
func BenchmarkRelease(b *testing.B) {
	for _, parked := range []int{0, 64, 512} {
		b.Run(fmt.Sprintf("waiters=%d", parked), func(b *testing.B) {
			cn := transport.NewChanNet(transport.ChanConfig{N: 1, D: time.Second})
			defer cn.Close()
			r := cn.Runtime(0)
			var open bool
			var wg sync.WaitGroup
			for i := 0; i < parked; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					req := &struct{ done bool }{}
					_ = rt.WaitUntil(r, "bench", func() bool { return req.done || open })
				}()
			}
			for cn.Parked(0) < parked {
				time.Sleep(time.Millisecond)
			}
			nop := func() {}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.Atomic(nop)
			}
			b.StopTimer()
			r.Atomic(func() { open = true })
			wg.Wait()
		})
	}
}
