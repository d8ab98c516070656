package transport_test

import (
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"mpsnap/internal/rt"
	"mpsnap/internal/transport"
	"mpsnap/internal/wire"
)

// kindCalls counts every kindCounted.Kind call.
var kindCalls atomic.Int64

// kindCounted is a registered message whose Kind counts its calls.
type kindCounted struct{ Seq int }

func (kindCounted) Kind() string {
	kindCalls.Add(1)
	return "kindCounted"
}

func init() {
	wire.Register(wire.Codec{
		Tag: wire.TestTagBase + 0x11, Proto: kindCounted{},
		Encode: func(b *wire.Buffer, m rt.Message) { b.PutInt(m.(kindCounted).Seq) },
		Decode: func(d *wire.Decoder) (rt.Message, error) { return kindCounted{Seq: d.Int()}, d.Err() },
		Gen:    func(rng *rand.Rand) rt.Message { return kindCounted{Seq: rng.Intn(1 << 20)} },
	})
}

// TestUnobservedNodeNeverNamesMessages: with no Observer installed, a
// message is neither named nor sized — N sends and N deliveries call Kind
// zero times on either transport. Naming a message is the observer's cost,
// and for a mux envelope each name is a string concatenation.
func TestUnobservedNodeNeverNamesMessages(t *testing.T) {
	const msgs = 200
	cn := transport.NewChanNet(transport.ChanConfig{N: 2, D: time.Millisecond})
	defer cn.Close()
	mesh, err := transport.LoopbackMesh(2, transport.TCPConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, tn := range mesh {
			tn.Close()
		}
	}()
	for name, tc := range map[string]struct {
		from rt.Runtime
		set  func(rt.Handler) // installs node 0's handler
	}{
		"chan": {cn.Runtime(1), func(h rt.Handler) { cn.SetHandler(0, h) }},
		"tcp":  {mesh[1].Runtime(), mesh[0].SetHandler},
	} {
		t.Run(name, func(t *testing.T) {
			var got atomic.Int64
			tc.set(rt.HandlerFunc(func(int, rt.Message) { got.Add(1) }))
			before := kindCalls.Load()
			for i := 0; i < msgs; i++ {
				tc.from.Send(0, kindCounted{Seq: i})
			}
			for deadline := time.Now().Add(5 * time.Second); got.Load() < msgs; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("%d of %d messages delivered after 5s", got.Load(), msgs)
				}
			}
			if calls := kindCalls.Load() - before; calls != 0 {
				t.Errorf("%d sends and deliveries called Kind %d times, want 0", msgs, calls)
			}
		})
	}
}
