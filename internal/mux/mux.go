// Package mux multiplexes several independent protocol instances over one
// rt.Runtime. Each instance gets a channel name; its messages are wrapped
// in an envelope and only delivered to the same-named instance on the
// receiving node. This is how applications run multiple snapshot objects
// (say, a CRDT store and a termination detector) over a single cluster
// without their segments or protocol messages colliding.
//
// All instances of a node share the node's atomicity domain (the
// underlying runtime's handler lock), so cross-instance state remains
// consistent with the paper's one-server-thread model. Each instance must
// still be driven by at most one client operation at a time.
package mux

import (
	"fmt"
	"math/rand"

	"mpsnap/internal/rt"
	"mpsnap/internal/wire"
)

// Envelope wraps an instance's message with its channel name.
type Envelope struct {
	Channel string
	Msg     rt.Message
}

// Kind implements rt.Message.
func (e Envelope) Kind() string { return e.Channel + "/" + e.Msg.Kind() }

// Wire tag 1 (see DESIGN.md, wire format section). The envelope is the
// one composite codec: its body is the channel name followed by the
// nested message's own (tag + body) encoding.
func init() {
	wire.Register(wire.Codec{
		Tag: 1, Proto: Envelope{}, Composite: true,
		Encode: func(b *wire.Buffer, m rt.Message) {
			env := m.(Envelope)
			b.PutString(env.Channel)
			if err := wire.AppendMessage(b, env.Msg); err != nil {
				// Sending an unregistered type over a channel is a setup
				// bug, caught the first time the instance sends anything.
				panic(fmt.Sprintf("mux: envelope on channel %q: %v", env.Channel, err))
			}
		},
		Decode: func(d *wire.Decoder) (rt.Message, error) {
			ch := d.String()
			if err := d.Err(); err != nil {
				return nil, err
			}
			inner, err := wire.DecodeMessageFrom(d)
			if err != nil {
				return nil, err
			}
			return Envelope{Channel: ch, Msg: inner}, nil
		},
		Gen: func(rng *rand.Rand) rt.Message {
			return Envelope{Channel: fmt.Sprintf("ch%d", rng.Intn(4)), Msg: wire.GenLeaf(rng)}
		},
		Encodable: func(m rt.Message) bool {
			return wire.Marshalable(m.(Envelope).Msg)
		},
	})
}

// Mux is one node's multiplexer. Create it, register it as the node's
// handler, then create named channels and build one protocol instance per
// channel.
type Mux struct {
	rt       rt.Runtime
	handlers map[string]rt.Handler
}

// New creates the multiplexer for a node.
func New(r rt.Runtime) *Mux {
	return &Mux{rt: r, handlers: make(map[string]rt.Handler)}
}

// HandleMessage implements rt.Handler: it unwraps envelopes and routes
// them to the named instance. Unknown channels are dropped (a node that
// doesn't host an instance ignores its traffic).
func (m *Mux) HandleMessage(src int, msg rt.Message) {
	env, ok := msg.(Envelope)
	if !ok {
		return
	}
	if h := m.handlers[env.Channel]; h != nil {
		h.HandleMessage(src, env.Msg)
	}
}

// Channel returns the sub-runtime for name. Build the protocol instance
// on it, then register the instance with Bind. The same name must be used
// on every node.
func (m *Mux) Channel(name string) rt.Runtime {
	return &channelRuntime{mux: m, name: name}
}

// Bind installs the handler of the named instance. Must be called before
// traffic flows on that channel (instances created at setup time).
// Registering the same name twice is a setup bug — two instances would
// steal each other's protocol messages — so Bind reports it and leaves the
// existing handler untouched.
func (m *Mux) Bind(name string, h rt.Handler) error {
	var err error
	m.rt.Atomic(func() {
		if _, dup := m.handlers[name]; dup {
			err = fmt.Errorf("mux: channel %q bound twice (each protocol instance needs a unique channel name)", name)
			return
		}
		m.handlers[name] = h
	})
	return err
}

// channelRuntime is the per-channel view of the underlying runtime: sends
// wrap messages in the channel's envelope; everything else passes through,
// sharing the node's atomicity and clock.
type channelRuntime struct {
	mux  *Mux
	name string
}

var _ rt.Runtime = (*channelRuntime)(nil)

func (c *channelRuntime) ID() int { return c.mux.rt.ID() }
func (c *channelRuntime) N() int  { return c.mux.rt.N() }
func (c *channelRuntime) F() int  { return c.mux.rt.F() }

func (c *channelRuntime) Send(dst int, msg rt.Message) {
	c.mux.rt.Send(dst, Envelope{Channel: c.name, Msg: msg})
}

func (c *channelRuntime) Broadcast(msg rt.Message) {
	c.mux.rt.Broadcast(Envelope{Channel: c.name, Msg: msg})
}

func (c *channelRuntime) Atomic(fn func()) { c.mux.rt.Atomic(fn) }

func (c *channelRuntime) WaitUntilThen(label string, pred func() bool, then func()) error {
	return c.mux.rt.WaitUntilThen(c.name+": "+label, pred, then)
}

func (c *channelRuntime) Now() rt.Ticks { return c.mux.rt.Now() }

func (c *channelRuntime) Crashed() bool { return c.mux.rt.Crashed() }
