package mux_test

import (
	"fmt"
	"strings"
	"testing"

	"mpsnap/internal/eqaso"
	"mpsnap/internal/harness"
	"mpsnap/internal/mux"
	"mpsnap/internal/rt"
	"mpsnap/internal/sim"
	"mpsnap/internal/sso"
)

// TestTwoObjectsOverOneCluster: an EQ-ASO and an SSO share the same nodes
// through the multiplexer; both behave correctly and independently.
func TestTwoObjectsOverOneCluster(t *testing.T) {
	const n, f = 5, 2
	w := sim.New(sim.Config{N: n, F: f, Seed: 1})
	asos := make([]*eqaso.Node, n)
	ssos := make([]*sso.Node, n)
	for i := 0; i < n; i++ {
		m := mux.New(w.Runtime(i))
		w.SetHandler(i, m)
		asos[i] = eqaso.New(m.Channel("aso"))
		m.Bind("aso", asos[i])
		ssos[i] = sso.New(m.Channel("sso"))
		m.Bind("sso", ssos[i])
		if got := m.Channels(); len(got) != 2 || got[0] != "aso" || got[1] != "sso" {
			t.Fatalf("channels = %v", got)
		}
	}
	for i := 0; i < n; i++ {
		i := i
		w.GoNode(fmt.Sprintf("client-%d", i), i, func(p *sim.Proc) {
			// Write DIFFERENT values to the two objects.
			if err := asos[i].Update([]byte(fmt.Sprintf("aso-%d", i))); err != nil {
				t.Errorf("aso update: %v", err)
				return
			}
			if err := ssos[i].Update([]byte(fmt.Sprintf("sso-%d", i))); err != nil {
				t.Errorf("sso update: %v", err)
				return
			}
			_ = p.Sleep(30 * rt.TicksPerD)
			snapA, err := asos[i].Scan()
			if err != nil {
				t.Errorf("aso scan: %v", err)
				return
			}
			snapS, err := ssos[i].Scan()
			if err != nil {
				t.Errorf("sso scan: %v", err)
				return
			}
			for j := 0; j < n; j++ {
				if string(snapA[j]) != fmt.Sprintf("aso-%d", j) {
					t.Errorf("aso segment %d = %q (cross-object leak?)", j, snapA[j])
				}
				if string(snapS[j]) != fmt.Sprintf("sso-%d", j) {
					t.Errorf("sso segment %d = %q (cross-object leak?)", j, snapS[j])
				}
			}
		})
	}
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestMuxedHistoriesStayLinearizable: the multiplexed ASO still passes the
// checker with a recorded workload.
func TestMuxedHistoriesStayLinearizable(t *testing.T) {
	const n, f = 4, 1
	var muxes []*mux.Mux
	c := harness.Build(sim.Config{N: n, F: f, Seed: 3}, func(r rt.Runtime) (rt.Handler, harness.Object) {
		m := mux.New(r)
		muxes = append(muxes, m)
		nd := eqaso.New(m.Channel("main"))
		m.Bind("main", nd)
		// A second, unrelated object generating background traffic.
		aux := eqaso.New(m.Channel("aux"))
		m.Bind("aux", aux)
		return m, nd
	})
	for i := 0; i < n; i++ {
		c.Client(i, func(o *harness.OpRunner) {
			for k := 0; k < 3; k++ {
				if _, err := o.Update(); err != nil {
					return
				}
				if _, err := o.Scan(); err != nil {
					return
				}
			}
		})
	}
	if _, err := c.MustLinearizable(); err != nil {
		t.Fatal(err)
	}
}

func TestBindTwicePanics(t *testing.T) {
	w := sim.New(sim.Config{N: 1, F: 0, Seed: 1})
	m := mux.New(w.Runtime(0))
	m.Bind("x", rt.HandlerFunc(func(int, rt.Message) {}))
	defer func() {
		if recover() == nil {
			t.Fatal("double bind must panic")
		}
	}()
	m.Bind("x", rt.HandlerFunc(func(int, rt.Message) {}))
}

// TestBindErrReportsDuplicate: the non-panicking registration reports a
// duplicate channel name descriptively and leaves the original handler in
// place (components that assemble channels dynamically, like cluster.Node,
// depend on both properties).
func TestBindErrReportsDuplicate(t *testing.T) {
	w := sim.New(sim.Config{N: 1, F: 0, Seed: 1})
	m := mux.New(w.Runtime(0))
	var got []string
	first := rt.HandlerFunc(func(int, rt.Message) { got = append(got, "first") })
	if err := m.BindErr("x", first); err != nil {
		t.Fatalf("first BindErr: %v", err)
	}
	err := m.BindErr("x", rt.HandlerFunc(func(int, rt.Message) { got = append(got, "second") }))
	if err == nil {
		t.Fatal("duplicate BindErr must error")
	}
	for _, want := range []string{"x", "bound twice"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
	// The original binding must be untouched.
	m.HandleMessage(0, mux.Envelope{Channel: "x", Msg: plainMsg{}})
	if len(got) != 1 || got[0] != "first" {
		t.Errorf("after duplicate BindErr, delivery went to %v (want [first])", got)
	}
	if ch := m.Channels(); len(ch) != 1 || ch[0] != "x" {
		t.Errorf("channels = %v", ch)
	}
}

type plainMsg struct{}

func (plainMsg) Kind() string { return "plain" }

func TestUnknownChannelAndNonEnvelopeDropped(t *testing.T) {
	w := sim.New(sim.Config{N: 2, F: 0, Seed: 1})
	m := mux.New(w.Runtime(0))
	w.SetHandler(0, m)
	w.Go("d", func(p *sim.Proc) {
		// Non-envelope and unknown-channel traffic must be ignored
		// without panicking.
		w.Runtime(1).Send(0, plainMsg{})
		w.Runtime(1).Send(0, mux.Envelope{Channel: "ghost", Msg: plainMsg{}})
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestEnvelopeKind(t *testing.T) {
	e := mux.Envelope{Channel: "aso", Msg: plainMsg{}}
	if e.Kind() != "aso/plain" {
		t.Fatalf("kind = %q", e.Kind())
	}
}

// TestUnbindRemovesChannel: Unbind detaches a handler (reporting whether
// one was bound), later traffic on the channel is dropped like any
// unknown channel, and the name can be bound again.
func TestUnbindRemovesChannel(t *testing.T) {
	w := sim.New(sim.Config{N: 1, F: 0, Seed: 1})
	m := mux.New(w.Runtime(0))
	var got int
	m.Bind("x", rt.HandlerFunc(func(int, rt.Message) { got++ }))
	m.HandleMessage(0, mux.Envelope{Channel: "x", Msg: plainMsg{}})
	if got != 1 {
		t.Fatalf("delivery before unbind: got = %d, want 1", got)
	}
	if !m.Unbind("x") {
		t.Error("Unbind of a bound channel reported false")
	}
	if m.Unbind("x") {
		t.Error("second Unbind reported a handler")
	}
	m.HandleMessage(0, mux.Envelope{Channel: "x", Msg: plainMsg{}})
	if got != 1 {
		t.Errorf("delivery after unbind: got = %d, want 1", got)
	}
	if ch := m.Channels(); len(ch) != 0 {
		t.Errorf("channels after unbind = %v, want none", ch)
	}
	if err := m.BindErr("x", rt.HandlerFunc(func(int, rt.Message) { got += 10 })); err != nil {
		t.Fatalf("rebind after unbind: %v", err)
	}
	m.HandleMessage(0, mux.Envelope{Channel: "x", Msg: plainMsg{}})
	if got != 11 {
		t.Errorf("delivery after rebind: got = %d, want 11", got)
	}
}

// TestUnbindUnderConcurrentShardTeardown: shard channels are torn down
// one by one while a remote sender keeps a steady envelope stream on all
// of them (the cluster-layer teardown pattern). Every unbound channel
// stops delivering — in-flight envelopes at most one delay bound later —
// and late traffic is dropped without panicking.
func TestUnbindUnderConcurrentShardTeardown(t *testing.T) {
	const shards = 4
	w := sim.New(sim.Config{N: 2, F: 0, Seed: 9})
	m0 := mux.New(w.Runtime(0))
	m1 := mux.New(w.Runtime(1))
	w.SetHandler(0, m0)
	w.SetHandler(1, m1)
	counts := make([]int, shards)
	name := func(k int) string { return fmt.Sprintf("shard/%d", k) }
	for k := 0; k < shards; k++ {
		k := k
		m1.Bind(name(k), rt.HandlerFunc(func(int, rt.Message) { counts[k]++ }))
	}
	chans := make([]rt.Runtime, shards)
	for k := range chans {
		chans[k] = m0.Channel(name(k))
	}
	stop := rt.Ticks(100 * rt.TicksPerD)
	w.GoNode("sender", 0, func(p *sim.Proc) {
		for p.Now() < stop {
			for k := 0; k < shards; k++ {
				chans[k].Send(1, plainMsg{})
			}
			if err := p.Sleep(rt.TicksPerD); err != nil {
				return
			}
		}
	})
	frozen := make([]int, shards)
	w.GoNode("teardown", 1, func(p *sim.Proc) {
		for k := 0; k < shards; k++ {
			_ = p.Sleep(10 * rt.TicksPerD)
			if !m1.Unbind(name(k)) {
				t.Errorf("Unbind(%s) reported no handler", name(k))
			}
			_ = p.Sleep(2 * rt.TicksPerD) // in-flight envelopes drain within D
			frozen[k] = counts[k]
		}
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < shards; k++ {
		if counts[k] == 0 {
			t.Errorf("shard %d saw no traffic before teardown", k)
		}
		if counts[k] != frozen[k] {
			t.Errorf("shard %d delivered %d envelopes after unbind (count %d, frozen %d)",
				k, counts[k]-frozen[k], counts[k], frozen[k])
		}
	}
	if ch := m1.Channels(); len(ch) != 0 {
		t.Errorf("channels after teardown = %v, want none", ch)
	}
}
