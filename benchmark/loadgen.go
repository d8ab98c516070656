package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"mpsnap/internal/cluster"
	"mpsnap/internal/history"
	"mpsnap/internal/svc"
)

// The generator opens no client sockets and runs this many issuing
// goroutines; an issued op waits for its completion on a goroutine of its
// own, because the layers' client APIs block.
const (
	issuers = 2
	// capBursts bounds the ops in flight to this many bursts' worth (0.2 s
	// of arrivals). An op that falls due beyond it is not refused: its
	// issuer waits for a free slot, falls behind the schedule, and the
	// wait is charged to the latency of every op it delays, which is what
	// an open loop's queue does. This host stalls for 0.2–0.35 s every few
	// minutes, and for seconds once in an hour; with a bound ten times
	// looser, the backlog of such a stall (96,000 ops, one goroutine each)
	// kept the acr stack at a quarter of the offered rate, at five times
	// the processor time per op, for the rest of the repetition.
	capBursts = 100
)

// loadStats is the generator's own health, reported under loadgen.*.
type loadStats struct {
	failed      int
	problems    []string
	inflightMax int
	issueNS     int64   // time spent inside the issuing calls
	late        []int64 // issue time − due time, per burst, ns
}

func (a *loadStats) merge(b loadStats) {
	a.failed += b.failed
	a.problems = append(a.problems, b.problems...)
	if b.inflightMax > a.inflightMax {
		a.inflightMax = b.inflightMax
	}
	a.issueNS += b.issueNS
	a.late = append(a.late, b.late...)
}

func (a *loadStats) problem(format string, args ...any) {
	if len(a.problems) < 8 {
		a.problems = append(a.problems, fmt.Sprintf(format, args...))
	}
}

// openLoad issues ops [from,to) of l on a fixed schedule: every `every`,
// a burst of `burst` ops falls due, whatever the system is doing, and each
// op's latency is timed from that due time, so a stall is charged to every
// op it delays. Bursts, because a process with nothing to run cannot sleep
// for less than about 1.1 ms (the Go runtime's poller waits in whole
// milliseconds): a generator that sleeps between single ops would be late
// by half of that on average, and that lateness, not the system, would be
// the latency. Sleeping from one burst to the next overshoots by 0.1–0.2 ms.
type openLoad struct {
	l        *opList
	from, to int
	burst    int
	every    time.Duration
	// do runs op i to completion and checks what came back. It is called
	// on the op's own goroutine: the layers' client APIs block.
	do      opFunc
	updLat  []int64
	scanLat []int64
	record  bool
}

func (c *openLoad) run() loadStats {
	n := c.to - c.from
	lat := make([]int64, n) // written once per op index; -1 = failed
	sem := make(chan struct{}, capBursts*c.burst)
	var inflight, inflightMax atomic.Int64
	var ops, disp sync.WaitGroup
	stats := make([]loadStats, issuers)
	var pmu sync.Mutex
	var shared loadStats
	bursts := (n + c.burst - 1) / c.burst
	start := time.Now().Add(c.every)
	for k := 0; k < issuers; k++ {
		disp.Add(1)
		go func(k int) {
			defer disp.Done()
			st := &stats[k]
			for b := k; b < bursts; b += issuers {
				due := start.Add(time.Duration(b) * c.every)
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				t0 := time.Now()
				if c.record {
					st.late = append(st.late, int64(t0.Sub(due)))
				}
				lo, hi := c.from+b*c.burst, c.from+(b+1)*c.burst
				if hi > c.to {
					hi = c.to
				}
				for i := lo; i < hi; i++ {
					sem <- struct{}{}
					if v := inflight.Add(1); v > inflightMax.Load() {
						inflightMax.Store(v) // a racy max is fine for a diagnostic
					}
					ops.Add(1)
					go func(i int) {
						defer ops.Done()
						err := c.do(i, c.l.ops[i], due)
						lat[i-c.from] = int64(time.Since(due))
						if err != nil {
							lat[i-c.from] = -1
							pmu.Lock()
							shared.failed++
							shared.problem("op %d: %v", i, err)
							pmu.Unlock()
						}
						inflight.Add(-1)
						<-sem
					}(i)
				}
				st.issueNS += int64(time.Since(t0))
			}
		}(k)
	}
	disp.Wait()
	ops.Wait()
	out := shared
	for k := range stats {
		out.merge(stats[k])
	}
	out.inflightMax = int(inflightMax.Load())
	if c.record {
		for j, d := range lat {
			switch {
			case d < 0:
			case c.l.ops[c.from+j].kind == opScan:
				c.scanLat = append(c.scanLat, d)
			default:
				c.updLat = append(c.updLat, d)
			}
		}
	}
	return out
}

// opFunc runs one op of the list to completion; see openLoad.do.
type opFunc func(i int, o op, due time.Time) error

// stack is what the open-loop workloads drive: nodes on a TCP mesh with a
// service front each.
type stack interface {
	services() []*svc.Service
	transportErrors() int
	close()
}

// runOpenLoop is one repetition of an open-loop workload: build the stack,
// run the warm-up ops (both charged to setup_s), run the measured ops, and
// take the stack down.
func runOpenLoop(l *opList, tr *tracer, burst int, build func() (stack, opFunc, error)) (*rep, error) {
	r := &rep{}
	t0 := time.Now()
	st, do, err := build()
	if err != nil {
		return nil, err
	}
	warm := openLoad{l: l, from: 0, to: l.warm, burst: burst, every: burstEvery, do: do}
	ws := warm.run()
	r.setupS = time.Since(t0).Seconds()

	if tr != nil {
		tr.beginMeasured(st.services())
	}
	load := openLoad{l: l, from: l.warm, to: len(l.ops), burst: burst, every: burstEvery, do: do, record: true}
	sp := beginSpan()
	r.load = load.run()
	sp.end(r)
	errsSeen := st.transportErrors()
	if tr != nil {
		tr.endMeasured(st.services(), errsSeen)
	}
	r.upd, r.scan = load.updLat, load.scanLat
	// The transport's buffers keep the size of the largest frame they
	// ever carried, which is luck; closing it first leaves what the
	// engines retain, which is the history. Nothing below may use do, warm
	// or load: they reach the stack too.
	st.close()
	r.liveHeap = retainedHeap(&st)

	r.ops = len(r.upd) + len(r.scan)
	r.failed = r.load.failed
	r.problems = append(ws.problems, r.load.problems...)
	if ws.failed > 0 {
		r.problems = append(r.problems, fmt.Sprintf("%d warm-up ops failed", ws.failed))
	}
	if errsSeen > 0 {
		r.problems = append(r.problems, fmt.Sprintf("%d transport errors", errsSeen))
	}
	return r, nil
}

// burstSpec sizes an open-loop op list: warmBursts bursts of warm-up and
// measuredBursts measured, scaled by seconds.
func burstSpec(burst int, seconds float64) (warm, measured int) {
	return scaleOps(warmBursts, seconds) * burst, scaleOps(measuredBursts, seconds) * burst
}

// svcDo drives an op through a per-node service front.
func svcDo(svcs []*svc.Service, l *opList, tr *tracer) opFunc {
	return func(i int, o op, due time.Time) error {
		s := svcs[o.node]
		var pend *history.PendingOp
		if tr != nil {
			pend = tr.opIssue(i, o, l, due)
		}
		var tk *svc.Ticket
		var err error
		if o.kind == opScan {
			tk, err = s.ScanAsync()
		} else {
			tk, err = s.UpdateAsync(l.payload(i))
		}
		if tr != nil {
			tr.opAdmitted(int(o.node))
		}
		if err != nil {
			return err
		}
		if err := tk.Wait(); err != nil {
			return err
		}
		var snap [][]byte
		if o.kind == opScan {
			if snap = tk.Snap(); len(snap) != len(svcs) {
				return fmt.Errorf("scan returned %d segments, want %d", len(snap), len(svcs))
			}
		}
		if tr != nil {
			tr.opDone(i, pend, snap)
		}
		return nil
	}
}

// clusterDo drives a keyed op through its router node.
func clusterDo(nodes []*cluster.Node, shards, members int, l *opList, tr *tracer) opFunc {
	return func(i int, o op, due time.Time) error {
		nd := nodes[o.node]
		if tr != nil {
			tr.clusterIssue(i, o, due)
		}
		if o.kind == opUpdate {
			err := nd.Update(l.keys[o.key], l.payload(i))
			if tr != nil && err == nil {
				tr.clusterDone(i, o, l, nil)
			}
			return err
		}
		cut, err := nd.GlobalScan()
		if err != nil {
			return err
		}
		if len(cut.Shards) != shards {
			return fmt.Errorf("global scan returned %d shards, want %d", len(cut.Shards), shards)
		}
		for s, sc := range cut.Shards {
			if len(sc.Segments) != members {
				return fmt.Errorf("global scan shard %d returned %d segments, want %d", s, len(sc.Segments), members)
			}
		}
		if tr != nil {
			tr.clusterDone(i, o, l, cut)
		}
		return nil
	}
}
