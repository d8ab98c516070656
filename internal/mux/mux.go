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
	"sync"
	"sync/atomic"

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
			name := d.RawString()
			if err := d.Err(); err != nil {
				return nil, err
			}
			ch, ok := (*boundNames.Load())[string(name)]
			if !ok {
				ch = string(name) // a channel no one here bound: copy it
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

// boundNames holds every channel name bound in this process, keyed by
// itself, so that decoding an envelope resolves its name to the bound
// string instead of copying it out of the frame. It only grows, by Bind,
// and is replaced whole, so a decoder reads it without a lock.
var (
	boundNames  atomic.Pointer[map[string]string]
	boundNamesW sync.Mutex // serializes Bind's replacements
)

func init() { boundNames.Store(&map[string]string{}) }

// internName adds name to boundNames.
func internName(name string) {
	boundNamesW.Lock()
	defer boundNamesW.Unlock()
	old := *boundNames.Load()
	if _, ok := old[name]; ok {
		return
	}
	m := make(map[string]string, len(old)+1)
	for k, v := range old {
		m[k] = v
	}
	m[name] = name
	boundNames.Store(&m)
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
func (m *Mux) Channel(name string) *Channel {
	return &Channel{mux: m, name: name, labels: make(map[string]string)}
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
	if err == nil {
		internName(name)
	}
	return err
}

// Channel is the per-channel view of the underlying runtime: sends wrap
// messages in the channel's envelope; everything else passes through,
// sharing the node's atomicity and clock.
type Channel struct {
	mux  *Mux
	name string
	// labels maps each wait label to its channel-prefixed form: engines
	// wait under a few constant labels, so each is built once.
	mu     sync.Mutex
	labels map[string]string
}

var _ rt.Runtime = (*Channel)(nil)

func (c *Channel) ID() int { return c.mux.rt.ID() }
func (c *Channel) N() int  { return c.mux.rt.N() }
func (c *Channel) F() int  { return c.mux.rt.F() }

func (c *Channel) Send(dst int, msg rt.Message) {
	c.mux.rt.Send(dst, Envelope{Channel: c.name, Msg: msg})
}

func (c *Channel) Broadcast(msg rt.Message) {
	c.mux.rt.Broadcast(Envelope{Channel: c.name, Msg: msg})
}

// Multicast sends msg to each node of dsts in order, boxing one envelope
// for all of them where a loop of Sends boxes one each. Like that loop, a
// crash mid-way reaches a prefix of dsts.
func (c *Channel) Multicast(dsts []int, msg rt.Message) {
	var env rt.Message = Envelope{Channel: c.name, Msg: msg}
	for _, dst := range dsts {
		c.mux.rt.Send(dst, env)
	}
}

func (c *Channel) Atomic(fn func()) { c.mux.rt.Atomic(fn) }

// WaitUntilThen waits under the label prefixed with the channel's name,
// which names the channel in the simulator's deadlock reports.
func (c *Channel) WaitUntilThen(label string, pred func() bool, then func()) error {
	c.mu.Lock()
	p, ok := c.labels[label]
	if !ok {
		p = c.name + ": " + label
		c.labels[label] = p
	}
	c.mu.Unlock()
	return c.mux.rt.WaitUntilThen(p, pred, then)
}

func (c *Channel) Now() rt.Ticks { return c.mux.rt.Now() }

func (c *Channel) Crashed() bool { return c.mux.rt.Crashed() }
