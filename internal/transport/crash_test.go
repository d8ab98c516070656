package transport_test

import (
	"errors"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"mpsnap/internal/rt"
	"mpsnap/internal/transport"
)

// sendCounter is an rt.Observer counting the messages its node sends.
type sendCounter struct{ n atomic.Int64 }

func (c *sendCounter) OnOp(rt.OpEvent) {}

func (c *sendCounter) OnMsg(ev rt.MsgEvent) {
	if ev.Event == rt.MsgSend {
		c.n.Add(1)
	}
}

// crashNode is one node of either transport, as the in-section crash test
// drives it.
type crashNode struct {
	r       rt.Runtime
	crash   func()
	restart func(h rt.Handler)
	parked  func() int
}

// await returns what done carries, failing the test if nothing comes
// within 5s (a deadlocked crash, or a wait that was never failed).
func await(t *testing.T, what string, done <-chan error) error {
	t.Helper()
	select {
	case err := <-done:
		return err
	case <-time.After(5 * time.Second):
		t.Fatalf("still waiting after 5s: %s", what)
		return nil
	}
}

// TestCrashInsideOwnSection: a node crashed from inside one of its own
// critical sections — a handler, an Atomic fn or a then — does not
// deadlock and takes no further step. A send later in that section is
// dropped, a waiter whose predicate the section made true is not fired,
// and a wait parked by another client fails with rt.ErrCrashed when the
// section ends, not before. A Restart that follows resumes none of the
// old incarnation's waiters, and the new incarnation runs normally.
func TestCrashInsideOwnSection(t *testing.T) {
	const d = 20 * time.Millisecond
	transports := []struct {
		name  string
		build func(t *testing.T, h rt.Handler, obs rt.Observer) crashNode
	}{
		{"chan", func(t *testing.T, h rt.Handler, obs rt.Observer) crashNode {
			cn := transport.NewChanNet(transport.ChanConfig{N: 1, D: d, Seed: 1, Observer: obs})
			t.Cleanup(cn.Close)
			cn.SetHandler(0, h)
			return crashNode{cn.Runtime(0), func() { cn.Crash(0) }, func(h rt.Handler) { cn.Restart(0, h) },
				func() int { return cn.Parked(0) }}
		}},
		{"tcp", func(t *testing.T, h rt.Handler, obs rt.Observer) crashNode {
			nodes, err := transport.LoopbackMesh(1, transport.TCPConfig{D: d, Observer: obs})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(nodes[0].Close)
			nodes[0].SetHandler(h)
			return crashNode{nodes[0].Runtime(), nodes[0].Crash, nodes[0].Restart, nodes[0].Parked}
		}},
	}
	for _, tr := range transports {
		for _, where := range []string{"handler", "atomic", "then"} {
			t.Run(tr.name+"/"+where, func(t *testing.T) {
				var nd crashNode
				// ready, stepped and triggered are node state: only
				// predicates, thens, Atomic fns and the handler touch them.
				var ready, stepped, triggered bool
				var handled seqSink
				var sent sendCounter
				var parkedRan, steppedRan atomic.Bool
				var parkedDone <-chan error

				// section crashes the node and then tries every further
				// step: a send to itself, and making stepped's waiter true.
				section := func() {
					nd.crash()
					select {
					case err := <-parkedDone:
						t.Errorf("the parked wait returned %v before the crashing section ended", err)
					default:
					}
					nd.r.Send(0, benchMsg{Seq: 2})
					stepped = true
				}
				nd = tr.build(t, rt.HandlerFunc(func(src int, msg rt.Message) {
					handled.HandleMessage(src, msg)
					if msg.(benchMsg).Seq == 1 {
						section()
					}
				}), &sent)
				// park parks a waiter, after those parked before it.
				park := func(pred func() bool, then func()) <-chan error {
					done, parked := make(chan error, 1), nd.parked()
					go func() { done <- nd.r.WaitUntilThen("test", pred, then) }()
					waitFor(t, "a waiter parked", func() bool { return nd.parked() == parked+1 })
					return done
				}
				parkedDone = park(func() bool { return ready }, func() { parkedRan.Store(true) })
				var thenDone <-chan error
				if where == "then" { // parked ahead of stepped's waiter, which its then makes true
					thenDone = park(func() bool { return triggered }, section)
				}
				steppedDone := park(func() bool { return stepped }, func() { steppedRan.Store(true) })

				switch where {
				case "handler":
					nd.r.Send(0, benchMsg{Seq: 1}) // the one send before the crash
				case "atomic":
					nd.r.Atomic(section)
				case "then":
					nd.r.Atomic(func() { triggered = true })
					if err := await(t, "the crashing waiter", thenDone); err != nil {
						t.Errorf("the waiter whose then crashed the node returned %v, want nil (its then ran)", err)
					}
				}
				if err := await(t, "the parked wait", parkedDone); !errors.Is(err, rt.ErrCrashed) {
					t.Errorf("the parked wait returned %v, want rt.ErrCrashed", err)
				}
				if err := await(t, "the stepped wait", steppedDone); !errors.Is(err, rt.ErrCrashed) {
					t.Errorf("a wait the crashed section made true returned %v, want rt.ErrCrashed", err)
				}
				if steppedRan.Load() {
					t.Error("a then ran after its node crashed")
				}
				if !nd.r.Crashed() {
					t.Fatal("the node is not crashed")
				}
				wantSent, wantHandled := int64(0), []int(nil)
				if where == "handler" {
					wantSent, wantHandled = 1, []int{1}
				}
				if n := sent.n.Load(); n != wantSent {
					t.Errorf("the node sent %d messages, want %d: the send after the crash went out", n, wantSent)
				}
				if got := handled.got(); !slices.Equal(got, wantHandled) {
					t.Errorf("handled %v, want %v", got, wantHandled)
				}

				var after seqSink
				nd.restart(&after)
				nd.r.Atomic(func() { ready = true })
				if parkedRan.Load() {
					t.Error("Restart resumed a waiter parked before the crash")
				}
				if err := nd.r.WaitUntilThen("ready", func() bool { return ready }, func() {}); err != nil {
					t.Errorf("a wait after Restart returned %v", err)
				}
				nd.r.Send(0, benchMsg{Seq: 3})
				waitFor(t, "a delivery after Restart", func() bool { return len(after.got()) == 1 })
			})
		}
	}
}

// TestRestartFailsWaitsTheCrashLeftParked: a crash from outside while
// another thread holds the node past its release leaves the parked waits
// to the next release or clock tick. A Restart before either fails them:
// it never resumes a wait of the old incarnation in the new one.
func TestRestartFailsWaitsTheCrashLeftParked(t *testing.T) {
	const d = time.Hour // no clock tick within the test
	cn := transport.NewChanNet(transport.ChanConfig{N: 1, D: d})
	defer cn.Close()
	mesh, err := transport.LoopbackMesh(1, transport.TCPConfig{D: d})
	if err != nil {
		t.Fatal(err)
	}
	defer mesh[0].Close()
	for name, tc := range map[string]struct {
		nd     crashNode
		locked func(fn func())
	}{
		"chan": {crashNode{cn.Runtime(0), func() { cn.Crash(0) }, func(h rt.Handler) { cn.Restart(0, h) },
			func() int { return cn.Parked(0) }}, func(fn func()) { cn.Locked(0, fn) }},
		"tcp": {crashNode{mesh[0].Runtime(), mesh[0].Crash, mesh[0].Restart, mesh[0].Parked}, mesh[0].Locked},
	} {
		t.Run(name, func(t *testing.T) {
			nd := tc.nd
			var ready bool // node state
			var ran atomic.Bool
			done := make(chan error, 1)
			go func() {
				done <- nd.r.WaitUntilThen("ready", func() bool { return ready }, func() { ran.Store(true) })
			}()
			waitFor(t, "a parked waiter", func() bool { return nd.parked() == 1 })
			tc.locked(nd.crash)
			if nd.parked() != 1 {
				t.Fatal("the crash failed the wait although another thread held the node")
			}
			nd.restart(rt.HandlerFunc(func(int, rt.Message) {}))
			nd.r.Atomic(func() { ready = true })
			if err := await(t, "the parked wait", done); !errors.Is(err, rt.ErrCrashed) {
				t.Errorf("the wait parked before the crash returned %v, want rt.ErrCrashed", err)
			}
			if ran.Load() {
				t.Error("Restart resumed a waiter parked before the crash")
			}
		})
	}
}
