package main

// The metric catalogue: every name the program can emit, with its unit,
// direction and — for end-to-end metrics — the bound by which it may get
// worse before a change counts as a regression. BENCHMARK.json at the
// repository root lists the same names; bench_test.go keeps the two and
// the program's actual output in agreement.

type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only
	// Moves says, for a per-layer metric, which end-to-end metric it
	// should move and on which workload (the prediction to test a change
	// against).
	Moves string
}

const (
	wlACR     = "tcp-acr-update"
	wlEQ      = "tcp-eqaso-scan"
	wlCluster = "cluster-durable-open"
	wlSim     = "sim-eqaso-crash"
)

var workloadWhy = []struct{ Name, Why string }{
	{wlACR, "acr's one-round path leaves framing, flush window, dispatch and svc coalescing as the cost: transport, wire and svc changes show here"},
	{wlEQ, "the paper's eqaso at 50% scans: lattice rounds, ValueLog and large view frames dominate; engine fixes show here and must not move tcp-acr-update"},
	{wlCluster, "the sharded durable deployment (cluster router, WAL with fsync, GC): router hop and fsync dominate, so added batching delay is caught here"},
	{wlSim, "eqaso on the simulator with 3 of 7 nodes crashed: no sockets, so transport changes show nothing and round-structure changes show exactly"},
}

var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.10},
	{Name: "update_p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "scan_p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "allocs_per_op", Unit: "count", Better: "lower", Bound: 0.10},
	{Name: "alloc_bytes_per_op", Unit: "B", Better: "lower", Bound: 0.25},
	{Name: "live_heap_mb", Unit: "MB", Better: "lower", Bound: 0.10},
}

var perLayer = []metricDef{
	// These three were end-to-end metrics in the issue. Their spread on
	// this host is wider than any bound the harness allows (README,
	// "Measured spread"), so they are reported, from the untraced
	// repetitions, and gate nothing.
	{"client.update_p99_us", "us", "lower", 0, "client-visible update tail, untraced: queue wait and batching delay show here first, on cluster-durable-open from due time"},
	{"client.scan_p99_us", "us", "lower", 0, "client-visible scan tail, untraced: as above; GlobalScan on cluster-durable-open"},
	{"proc.cpu_us_per_op", "us", "lower", 0, "process user+sys CPU per op, untraced: what the offered rate costs; the capacity a stack has left is the cores over this"},

	{"loadgen.late_p99_us", "us", "lower", 0, "generator health: how late bursts were issued; if not small against the p50s, every latency is suspect"},
	{"loadgen.inflight_max", "count", "lower", 0, "generator health: ops in flight at once; at 100 bursts' worth the generator waited for a free slot"},
	{"loadgen.issue_us_per_op", "us", "lower", 0, "generator's own cost inside cpu_us_per_op, all workloads"},

	{"cluster.call_p50_us", "us", "lower", 0, "update_p50_us and scan_p50_us on cluster-durable-open only"},
	{"cluster.route_self_us_per_op", "us", "lower", 0, "update_p50_us on cluster-durable-open only"},
	{"cluster.retries_per_op", "count", "lower", 0, "update_p99_us on cluster-durable-open only"},
	{"cluster.stale_rejects", "count", "lower", 0, "update_p99_us on cluster-durable-open only"},

	{"svc.queue_wait_p50_us", "us", "lower", 0, "update_p50_us on both tcp-*"},
	{"svc.queue_wait_p99_us", "us", "lower", 0, "update_p99_us and scan_p99_us on both tcp-*"},
	{"svc.updates_per_proto_update", "count", "higher", 0, "cpu_us_per_op down and ops_per_s up on both tcp-*"},
	{"svc.scans_per_proto_scan", "count", "higher", 0, "cpu_us_per_op down and ops_per_s up on tcp-eqaso-scan"},
	{"svc.max_batch", "count", "higher", 0, "update_p99_us on both tcp-*"},
	{"svc.window_resizes", "count", "lower", 0, "update_p99_us on both tcp-*"},
	{"svc.rejects", "count", "lower", 0, "failed ops, all workloads"},

	{"engine.update_call_p50_us", "us", "lower", 0, "update_p50_us on tcp-eqaso-scan and sim-eqaso-crash"},
	{"engine.scan_call_p50_us", "us", "lower", 0, "scan_p50_us on tcp-eqaso-scan and sim-eqaso-crash"},
	{"engine.busy_us_per_op", "us", "lower", 0, "ops_per_s on tcp-eqaso-scan and sim-eqaso-crash"},
	{"engine.handler_busy_us_per_op", "us", "lower", 0, "cpu_us_per_op on tcp-eqaso-scan and sim-eqaso-crash"},
	{"engine.handler_calls_per_op", "count", "lower", 0, "cpu_us_per_op on all workloads"},
	{"engine.phase.readTag_us", "us", "lower", 0, "update_p50_us and scan_p50_us on tcp-eqaso-scan and sim-eqaso-crash; 0 on tcp-acr-update"},
	{"engine.phase.disseminate_us", "us", "lower", 0, "update_p50_us on tcp-eqaso-scan; 0 on tcp-acr-update"},
	{"engine.phase.writeTag_us", "us", "lower", 0, "update_p50_us on tcp-eqaso-scan; 0 on tcp-acr-update"},
	{"engine.phase.eqWait_us", "us", "lower", 0, "update_p50_us on tcp-eqaso-scan; 0 on tcp-acr-update"},
	{"engine.phase.renewal_us", "us", "lower", 0, "update_p50_us and scan_p50_us on tcp-eqaso-scan and sim-eqaso-crash; 0 on tcp-acr-update"},
	{"engine.phase.borrow_us", "us", "lower", 0, "update_p99_us, alloc_bytes_per_op and live_heap_mb on tcp-eqaso-scan; 0 on tcp-acr-update"},

	{"wal.syncs_per_op", "count", "lower", 0, "update_p50_us on cluster-durable-open; 0 elsewhere"},
	{"wal.sync_p50_us", "us", "lower", 0, "update_p50_us on cluster-durable-open; 0 elsewhere"},
	{"wal.sync_busy_us_per_op", "us", "lower", 0, "update_p99_us on cluster-durable-open; 0 elsewhere"},
	{"wal.writes_per_op", "count", "lower", 0, "cpu_us_per_op on cluster-durable-open; 0 elsewhere"},
	{"wal.bytes_per_op", "B", "lower", 0, "update_p50_us on cluster-durable-open; 0 elsewhere"},

	{"transport.msgs_per_op", "count", "lower", 0, "ops_per_s and cpu_us_per_op on tcp-acr-update; 0 on sim-eqaso-crash"},
	{"transport.wire_bytes_per_op", "B", "lower", 0, "cpu_us_per_op on tcp-eqaso-scan; 0 on sim-eqaso-crash"},
	{"transport.bytes_per_msg", "B", "lower", 0, "allocs_per_op on both tcp-*; 0 on sim-eqaso-crash"},
	{"transport.errors", "count", "lower", 0, "failed ops on the TCP workloads"},
	{"transport.echo_rtt_p50_us", "us", "lower", 0, "update_p50_us on tcp-acr-update"},
	{"transport.stream_msgs_per_s", "1/s", "higher", 0, "ops_per_s on tcp-acr-update"},

	{"wire.encode_ns_per_msg", "ns", "lower", 0, "cpu_us_per_op on both tcp-*"},
	{"wire.decode_ns_per_msg", "ns", "lower", 0, "cpu_us_per_op on both tcp-*"},
	{"wire.allocs_per_roundtrip", "count", "lower", 0, "allocs_per_op on both tcp-*"},

	{"sim.msgs_per_op", "count", "lower", 0, "exact; cpu_us_per_op on sim-eqaso-crash"},
	{"sim.events_per_op", "count", "lower", 0, "exact; ops_per_s on sim-eqaso-crash"},
	{"sim.ops_per_kD", "count", "higher", 0, "exact virtual throughput (ops per 1000 message delays) on sim-eqaso-crash"},
	{"sim.update_p50_D", "D", "lower", 0, "exact virtual latency in message delays on sim-eqaso-crash"},
	{"sim.update_p99_D", "D", "lower", 0, "exact virtual latency in message delays on sim-eqaso-crash"},
	{"sim.scan_p50_D", "D", "lower", 0, "exact virtual latency in message delays on sim-eqaso-crash"},
	{"sim.scan_p99_D", "D", "lower", 0, "exact virtual latency in message delays on sim-eqaso-crash"},
	{"sim.crash_pending_ops", "count", "lower", 0, "exact; ops a crash cut short on sim-eqaso-crash"},

	{"trace.overhead_pct", "%", "lower", 0, "how much more processor time per op the traced repetition took than the untraced ones"},
	{"trace.spans", "count", "higher", 0, "spans written to the trace file"},
	{"trace.self_sum_pct", "%", "higher", 0, "per-layer self times as a share of sampled client.op time; 100 when the tree is whole"},

	{"host.steal_pct", "%", "lower", 0, "tells a noisy host from a regression"},
	{"host.spin_ms_before", "ms", "lower", 0, "tells a noisy host from a regression"},
	{"host.spin_ms_after", "ms", "lower", 0, "tells a noisy host from a regression"},
	{"host.rep_spread_pct", "%", "lower", 0, "tells a noisy host from a regression"},
	{"host.reps_redone", "count", "lower", 0, "repetitions run again because the host took more than 3% of the guest's processor time during them"},
}
