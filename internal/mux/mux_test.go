package mux_test

import (
	"errors"
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
		ssos[i] = sso.New(m.Channel("sso"))
		if err := errors.Join(m.Bind("aso", asos[i]), m.Bind("sso", ssos[i])); err != nil {
			t.Fatal(err)
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
		// A second, unrelated object generating background traffic.
		aux := eqaso.New(m.Channel("aux"))
		if err := errors.Join(m.Bind("main", nd), m.Bind("aux", aux)); err != nil {
			t.Fatal(err)
		}
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

// TestBindReportsDuplicate: a duplicate channel name is reported
// descriptively and the original handler stays in place (components that
// assemble channels dynamically, like cluster.Node, depend on both
// properties).
func TestBindReportsDuplicate(t *testing.T) {
	w := sim.New(sim.Config{N: 1, F: 0, Seed: 1})
	m := mux.New(w.Runtime(0))
	var got []string
	first := rt.HandlerFunc(func(int, rt.Message) { got = append(got, "first") })
	if err := m.Bind("x", first); err != nil {
		t.Fatalf("first Bind: %v", err)
	}
	err := m.Bind("x", rt.HandlerFunc(func(int, rt.Message) { got = append(got, "second") }))
	if err == nil {
		t.Fatal("duplicate Bind must error")
	}
	for _, want := range []string{"x", "bound twice"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
	// The original binding must be untouched.
	m.HandleMessage(0, mux.Envelope{Channel: "x", Msg: plainMsg{}})
	if len(got) != 1 || got[0] != "first" {
		t.Errorf("after duplicate Bind, delivery went to %v (want [first])", got)
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
