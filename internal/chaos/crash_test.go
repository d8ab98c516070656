package chaos

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sync/atomic"
	"testing"
	"time"

	"mpsnap/internal/obs"
	"mpsnap/internal/rt"
)

// TestArmedCrashDiesWithItsNode: a mid-broadcast crash armed on a node
// that crashes before it broadcasts is disarmed by that crash, on every
// backend. The restarted node stays up, and its first broadcast reaches
// every node.
func TestArmedCrashDiesWithItsNode(t *testing.T) {
	for _, backend := range backends {
		t.Run(backend, func(t *testing.T) {
			w := newTestWorld(t, backend)
			sinks := make([]*probeSink, 3)
			for id := range sinks {
				sinks[id] = &probeSink{}
				w.SetHandler(id, sinks[id])
			}
			restarted := &probeSink{}
			got := func() []int {
				return []int{len(restarted.got()), len(sinks[1].got()), len(sinks[2].got())}
			}
			runSteps(t, w, func() bool { return fmt.Sprint(got()) == "[1 1 1]" },
				func(w world) {
					w.ArmMidCrash(0)
					w.Crash(0) // before node 0 broadcast anything
				},
				func(w world) {
					w.Restart(0, restarted)
					w.Runtime(0).Broadcast(corruptProbe{Seq: 1})
				})
			if w.Crashed(0) {
				t.Error("the restarted node crashed again: its old incarnation's armed crash outlived it")
			}
			if fmt.Sprint(got()) != "[1 1 1]" {
				t.Errorf("nodes 0 (restarted), 1 and 2 received %v messages, want [1 1 1]", got())
			}
		})
	}
}

// TestCrashStopsItsNodeInsideTheSection: a mid-broadcast crash takes
// effect inside the critical section of the broadcast. Node 0 broadcasts
// on each trigger, with a mid-broadcast crash armed, and three triggers
// wait on a held link into it: once released, node 0 handles exactly the
// first, since it crashed while handling it.
func TestCrashStopsItsNodeInsideTheSection(t *testing.T) {
	for _, backend := range backends {
		t.Run(backend, func(t *testing.T) {
			w := newTestWorld(t, backend)
			var handled atomic.Int32
			r0 := w.Runtime(0)
			w.SetHandler(0, rt.HandlerFunc(func(src int, msg rt.Message) {
				if src == 1 {
					handled.Add(1)
					r0.Broadcast(corruptProbe{Seq: 100})
				}
			}))
			w.SetHandler(1, &probeSink{})
			w.SetHandler(2, &probeSink{})
			runSteps(t, w, func() bool { return false },
				func(w world) {
					w.Spike(1, 0, 5*rt.TicksPerD) // holds the link 1→0 on chan and tcp
					for seq := 1; seq <= 3; seq++ {
						w.Runtime(1).Send(0, corruptProbe{Seq: seq})
					}
					w.ArmMidCrash(0)
				},
				func(w world) { w.Spike(1, 0, 0) })
			if !w.Crashed(0) {
				t.Fatal("node 0 did not crash mid-broadcast")
			}
			if n := handled.Load(); n != 1 {
				t.Errorf("node 0 handled %d triggers, want 1: it took steps after its crash", n)
			}
		})
	}
}

// TestChurnCrashesFollowSchedule: on the simulator the crashes a run
// performs are exactly the ones its schedule names — each EvCrash at its
// tick, or a mid-broadcast crash inside its [arm, arm + 2D] window, once
// — plus end-of-run crash-aborts of blocked nodes. A crash armed but never
// fired must not strike the node's next incarnation.
func TestChurnCrashesFollowSchedule(t *testing.T) {
	// churn seeds 1 and 2 per engine, and eqaso under the default mix with
	// -restarts 2 at seeds 42 and 1337; 5 s each, the CLI's default.
	type run struct {
		engine string
		seed   int64
		churn  bool
	}
	var runs []run
	for _, engine := range []string{"eqaso", "acr", "fastsnap"} {
		runs = append(runs, run{engine, 1, true}, run{engine, 2, true})
	}
	runs = append(runs, run{"eqaso", 42, false}, run{"eqaso", 1337, false})
	for _, r := range runs {
		name := fmt.Sprintf("%s/seed%d/restarts2", r.engine, r.seed)
		if r.churn {
			name = fmt.Sprintf("%s/seed%d/churn", r.engine, r.seed)
		}
		t.Run(name, func(t *testing.T) {
			cfg := Config{N: 5, F: 2, Engine: r.engine, Seed: r.seed, Duration: TicksOf(5 * time.Second),
				Churn: r.churn, TraceDir: t.TempDir(), TraceAlways: true, TraceCap: 1 << 21}
			if !r.churn {
				cfg.Mix = defaultMix()
				cfg.Mix.Restarts = 2
			}
			res, err := Run(cfg, "sim")
			if err != nil {
				t.Fatal(err)
			}
			if res.TraceDropped != 0 {
				t.Fatalf("the trace ring evicted %d events; raise TraceCap", res.TraceDropped)
			}
			data, err := os.ReadFile(res.TracePath)
			if err != nil {
				t.Fatal(err)
			}
			performed := make(map[int]int) // index of the schedule's event → crashes it explains
			for _, ln := range bytes.Split(bytes.TrimSpace(data), []byte("\n")) {
				var ev obs.Event
				if err := json.Unmarshal(ln, &ev); err != nil {
					t.Fatal(err)
				}
				if ev.Cat != obs.CatSys || ev.Event != "crash" {
					continue
				}
				if ev.T > cfg.Duration && (ev.T-cfg.Duration)%grace == 0 {
					continue // an end-of-run crash-abort
				}
				i := scheduledCrash(res.Schedule.Events, ev.Src, ev.T)
				if i < 0 {
					t.Errorf("node %d crashed at %d ticks (%.1f D), which its schedule does not name",
						ev.Src, ev.T, float64(ev.T)/float64(rt.TicksPerD))
					continue
				}
				performed[i]++
			}
			for i, ev := range res.Schedule.Events {
				if ev.Kind == EvCrash && performed[i] != 1 {
					t.Errorf("scheduled %s of node %d at %d ticks happened %d times, want once",
						ev.Kind, ev.Node, ev.At, performed[i])
				}
			}
		})
	}
}

// scheduledCrash returns the index of the schedule's EvCrash that names a
// crash of node at tick at, or -1.
func scheduledCrash(events []Event, node int, at rt.Ticks) int {
	for i, ev := range events {
		if ev.Kind == EvCrash && ev.Node == node &&
			(at == ev.At || (ev.Mid && ev.At <= at && at <= ev.At+2*rt.TicksPerD)) {
			return i
		}
	}
	return -1
}
