package main

import (
	"encoding/json"
	"os"
	"path/filepath"
)

// traceFile is what a traced run writes to benchmark/out/trace-<w>.json.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Clock    string `json:"clock"`
	// SampledOps client.op trees were kept (one op in 64);
	// ClientOpUS is their total duration and SelfUS splits it by layer.
	SampledOps int              `json:"sampled_ops"`
	ClientOpUS int64            `json:"client_op_us"`
	SelfUS     map[string]int64 `json:"self_us"`
	Spans      []spanRec        `json:"spans"`
}

// layerMetrics turns one traced repetition into the per-layer metrics.
// ops is the number of client ops the repetition completed: every
// "per_op" figure divides by it.
func (t *tracer) layerMetrics(w *workload, l *opList, r *rep) (map[string]float64, *traceFile) {
	m := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		m[d.Name] = 0
	}
	ops := float64(r.ops)
	if ops == 0 {
		ops = 1
	}
	for _, nt := range t.nodes {
		nt.seal()
	}

	// loadgen
	late := sortedCopy(r.load.late)
	m["loadgen.late_p99_us"] = percentile(late, .99) / 1e3
	m["loadgen.inflight_max"] = float64(r.load.inflightMax)
	m["loadgen.issue_us_per_op"] = float64(r.load.issueNS) / 1e3 / ops

	// svc
	sd := t.svcDelta
	if sd.ProtoUpdates > 0 {
		m["svc.updates_per_proto_update"] = float64(sd.Updates) / float64(sd.ProtoUpdates)
	}
	if sd.ProtoScans > 0 {
		m["svc.scans_per_proto_scan"] = float64(sd.Scans) / float64(sd.ProtoScans)
	}
	m["svc.max_batch"] = float64(sd.MaxBatch)
	m["svc.window_resizes"] = float64(sd.WindowGrows + sd.WindowShrinks)
	m["svc.rejects"] = float64(sd.Rejected)
	var waits, updCalls, scanCalls, syncs []int64
	var engBusy, handlerNS, handlerN, syncNS, walWrites, walBytes int64
	phases := make(map[string]int64)
	for _, nt := range t.nodes {
		for _, rq := range nt.reqs {
			if c := lastWithin(len(nt.calls), nt.callAt, rq.kind, rq.start, rq.end); c >= 0 {
				waits = append(waits, nt.calls[c].start-rq.start)
			}
		}
		for _, c := range nt.calls {
			d := c.end - c.start
			engBusy += d
			if c.kind == opScan {
				scanCalls = append(scanCalls, d)
			} else {
				updCalls = append(updCalls, d)
			}
		}
		handlerNS += nt.handlerNS
		handlerN += nt.handlerN
		for _, ev := range nt.wals {
			if ev.sync {
				syncs = append(syncs, ev.ns)
				syncNS += ev.ns
			} else {
				walWrites++
				walBytes += int64(ev.bytes)
			}
		}
		for p, us := range nt.phaseUS {
			phases[p] += us
		}
	}
	waits = sortedCopy(waits)
	m["svc.queue_wait_p50_us"] = percentile(waits, .5)
	m["svc.queue_wait_p99_us"] = percentile(waits, .99)

	// engine
	m["engine.update_call_p50_us"] = percentile(sortedCopy(updCalls), .5)
	m["engine.scan_call_p50_us"] = percentile(sortedCopy(scanCalls), .5)
	m["engine.busy_us_per_op"] = float64(engBusy) / ops
	m["engine.handler_busy_us_per_op"] = float64(handlerNS) / 1e3 / ops
	m["engine.handler_calls_per_op"] = float64(handlerN) / ops
	for _, p := range []string{"readTag", "disseminate", "writeTag", "eqWait", "renewal", "borrow"} {
		m["engine.phase."+p+"_us"] = float64(phases[p]) / ops
	}

	// wal
	m["wal.syncs_per_op"] = float64(len(syncs)) / ops
	m["wal.sync_p50_us"] = percentile(sortedCopy(syncs), .5) / 1e3
	m["wal.sync_busy_us_per_op"] = float64(syncNS) / 1e3 / ops
	m["wal.writes_per_op"] = float64(walWrites) / ops
	m["wal.bytes_per_op"] = float64(walBytes) / ops

	// transport (the isolated echo/stream figures are added by the caller)
	sends := float64(t.sends.Load())
	m["transport.msgs_per_op"] = sends / ops
	m["transport.wire_bytes_per_op"] = float64(t.sendBytes.Load()) / ops
	if sends > 0 {
		m["transport.bytes_per_msg"] = float64(t.sendBytes.Load()) / sends
	}
	m["transport.errors"] = float64(t.transportErrs) + float64(t.corrupt.Load())

	// sim
	if r.virt != nil {
		m["sim.msgs_per_op"] = float64(t.simSends.Load()) / ops
		m["sim.events_per_op"] = float64(r.virt.Events) / ops
		m["sim.ops_per_kD"] = r.virt.OpsPerKD
		m["sim.update_p50_D"], m["sim.update_p99_D"] = r.virt.UpdP50, r.virt.UpdP99
		m["sim.scan_p50_D"], m["sim.scan_p99_D"] = r.virt.ScanP50, r.virt.ScanP99
		m["sim.crash_pending_ops"] = float64(r.crashPending)
	}

	// spans: one op in sampleEvery, plus the sampled handler calls
	tf := &traceFile{Workload: w.name, Seed: l.seed, Clock: "us since the mesh epoch", SelfUS: make(map[string]int64)}
	if r.virt != nil {
		tf.Clock = "virtual us (1 tick; D = 1000)"
	}
	var calls []int64
	routed := 0
	for i := l.warm; i < len(l.ops); i++ {
		ot := t.ops[i]
		if ot.t2 == 0 {
			continue
		}
		o := l.ops[i]
		if w.kind == kindCluster {
			calls = append(calls, ot.t2-ot.t0)
			routed += t.expectedRouted(o)
		}
		if (i-l.warm)%sampleEvery != 0 {
			continue
		}
		tf.Spans = t.opSpans(tf.Spans, i, o.kind, w.kind == kindCluster, t.candidates(w, o, i))
		tf.SampledOps++
		tf.ClientOpUS += ot.t2 - ot.due
	}
	self := selfTimes(tf.Spans)
	var selfSum int64
	for i, s := range tf.Spans {
		tf.SelfUS[s.Name] += self[i]
		selfSum += self[i]
	}
	if tf.ClientOpUS > 0 {
		m["trace.self_sum_pct"] = 100 * float64(selfSum) / float64(tf.ClientOpUS)
	}
	for n, nt := range t.nodes {
		for _, h := range nt.handles {
			tf.Spans = append(tf.Spans, spanRec{Name: "engine.handle", StartUS: h.start, EndUS: h.end, Parent: -1, Op: -1 - n})
			hs := len(tf.Spans) - 1
			for _, ev := range nt.wals {
				if ev.call == -1 && ev.start >= h.start && ev.end <= h.end {
					name := "wal.write"
					if ev.sync {
						name = "wal.sync"
					}
					tf.Spans = append(tf.Spans, spanRec{Name: name, StartUS: ev.start, EndUS: ev.end, Parent: hs, Op: -1 - n})
				}
			}
		}
	}
	m["trace.spans"] = float64(len(tf.Spans))

	// cluster
	if w.kind == kindCluster {
		m["cluster.call_p50_us"] = percentile(sortedCopy(calls), .5)
		if tf.SampledOps > 0 {
			m["cluster.route_self_us_per_op"] = float64(tf.SelfUS["cluster.call"]) / float64(tf.SampledOps)
		}
		m["cluster.retries_per_op"] = float64(t.routedReqs.Load()-int64(routed)) / ops
		m["cluster.stale_rejects"] = float64(t.staleRejects.Load())
	}
	return m, tf
}

// expectedRouted is how many routed requests the op sends when nothing is
// retried: one per shard its router is not a member of.
func (t *tracer) expectedRouted(o op) int {
	remote := func(shard int) int {
		for _, mbr := range t.members[shard] {
			if mbr == int(o.node) {
				return 0
			}
		}
		return 1
	}
	if o.kind == opUpdate {
		return remote(t.shardOf[o.key])
	}
	n := 0
	for s := range t.members {
		n += remote(s)
	}
	return n
}

// candidates lists the nodes whose service front may have served the op.
func (t *tracer) candidates(w *workload, o op, i int) []int {
	switch {
	case w.kind != kindCluster:
		return []int{int(t.ops[i].node)}
	case o.kind == opUpdate:
		return t.members[t.shardOf[o.key]]
	}
	var all []int
	for _, ms := range t.members {
		all = append(all, ms...)
	}
	return all
}

func writeTrace(tf *traceFile) (string, error) {
	dir := filepath.Join("benchmark", "out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+tf.Workload+".json")
	b, err := json.Marshal(tf)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}
