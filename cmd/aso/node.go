package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"strings"
	"time"

	"mpsnap/internal/chaos"
	"mpsnap/internal/engine"
	"mpsnap/internal/obs"
	"mpsnap/internal/rt"
	"mpsnap/internal/svc"
	"mpsnap/internal/transport"
	"mpsnap/internal/wal"
)

// nodeConfig is the parsed and validated command line of one `aso node`
// process; the topology's N is the length of the address list.
type nodeConfig struct {
	topology
	ID          int
	Addrs       []string
	D           time.Duration
	DialTimeout time.Duration
	Clients     string
	MaxPending  int
	// HTTP, if non-empty, serves GET /metrics (Prometheus text format,
	// wall-clock µs latencies) and GET /debug/trace (recent events as
	// JSONL) on this address.
	HTTP string
	// TraceCap bounds the /debug/trace ring buffer.
	TraceCap int
	// WAL, if non-empty, persists the node's protocol state to this
	// file; if the file already holds a durable prefix the node recovers
	// from it and rejoins the cluster (durable engines only). A node
	// without one is crash-stop: restarting it is outside the model.
	WAL string
}

// svcOptions is the service front of a deployed node: the serving mode its
// engine needs, its queue bound and its observer.
func (c nodeConfig) svcOptions(observer rt.Observer) svc.Options {
	return svc.Options{
		Mode:       svc.ModeFor(c.Engine),
		MaxPending: c.MaxPending,
		Observer:   observer,
	}
}

// tcpConfig is the transport of a deployed node. A peer connection dropped
// for a framing or decode error is logged: nobody polls TCPNode.Errors in
// a long-running process, so without the hook the drop would be silent.
func (c nodeConfig) tcpConfig(observer rt.Observer) transport.TCPConfig {
	return transport.TCPConfig{
		ID: c.ID, Addrs: c.Addrs, F: c.F, D: c.D,
		DialTimeout: c.DialTimeout, Observer: observer,
		OnError: func(peer int, err error) { log.Printf("peer %d: %v", peer, err) },
	}
}

// parseNodeConfig parses the `aso node` command line. Usage and flag errors
// are written to out; validation errors are returned.
func parseNodeConfig(args []string, out io.Writer) (nodeConfig, error) {
	cfg := nodeConfig{topology: topology{Engine: "eqaso"}}
	var addrs string
	fs := flag.NewFlagSet("aso node", flag.ContinueOnError)
	fs.SetOutput(out)
	cfg.register(fs, flagEngine, flagF)
	fs.IntVar(&cfg.ID, "id", 0, "this node's index into -addrs")
	fs.StringVar(&addrs, "addrs", "", "comma-separated listen addresses of all nodes")
	fs.DurationVar(&cfg.D, "d", 10*time.Millisecond, "wall-clock duration treated as one D (reporting only)")
	fs.DurationVar(&cfg.DialTimeout, "dial-timeout", 10*time.Second, "total per-peer connection budget at startup")
	fs.StringVar(&cfg.Clients, "clients", "", "optional listen address for concurrent TCP client sessions")
	fs.IntVar(&cfg.MaxPending, "max-pending", svc.DefaultMaxPending, "service queue bound (backpressure blocks past it)")
	fs.StringVar(&cfg.HTTP, "http", "", "optional listen address for /metrics and /debug/trace")
	fs.IntVar(&cfg.TraceCap, "trace-cap", 4096, "event capacity of the /debug/trace ring buffer")
	fs.StringVar(&cfg.WAL, "wal", "", "write-ahead log file for crash-recovery; recovers and rejoins if it already has content (durable engines). Without it the node is crash-stop: do not restart it")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	cfg.Addrs = strings.Split(addrs, ",")
	if len(cfg.Addrs) < 3 {
		return cfg, fmt.Errorf("need -addrs with at least 3 comma-separated addresses")
	}
	cfg.N = len(cfg.Addrs)
	if err := cfg.resolve(); err != nil {
		return cfg, err
	}
	if cfg.ID < 0 || cfg.ID >= cfg.N {
		return cfg, fmt.Errorf("-id %d out of range for %d addresses", cfg.ID, cfg.N)
	}
	if cfg.D <= 0 {
		return cfg, fmt.Errorf("-d must be positive")
	}
	if cfg.TraceCap <= 0 {
		return cfg, fmt.Errorf("-trace-cap must be positive")
	}
	if cfg.WAL != "" && !cfg.Info.Durable() {
		return cfg, fmt.Errorf("-wal needs a crash-recovery engine, and %q has no WAL support", cfg.Engine)
	}
	return cfg, nil
}

// runNode runs one snapshot-object node over real TCP. Start one process per node with the same -addrs list (peers may come up in any
// order — dialing retries with exponential backoff for -dial-timeout),
// then drive any node through its stdin REPL:
//
//	# shell 1                                  # shell 2, 3 ...
//	aso node -id 0 -addrs :7000,:7001,:7002   aso node -id 1 -addrs ...
//
//	> update hello          write to the own segment
//	> scan                  atomic snapshot of all segments
//	> stats                 service-layer counters
//	> quit
//
// All operations flow through the concurrent service layer (internal/svc):
// pending updates coalesce into one protocol update, concurrent scans
// share one protocol scan. With -clients ADDR the node also accepts any
// number of concurrent TCP client sessions speaking the same line
// protocol, all multiplexed onto this node's single protocol instance:
//
//	aso node -id 0 -addrs ... -clients :8000 &
//	nc localhost 8000
//
// With -http ADDR the node serves its observability surface: GET /metrics
// exports per-operation latency histograms (wall-clock µs), message
// counters and — with -wal — the log's append, sync and byte counters in
// Prometheus text format; GET /debug/trace streams the most
// recent operation/phase/message events as JSONL; /debug/pprof/ serves
// the standard Go profiling endpoints for profiling saturation runs.
//
// The transport relies on TCP's in-order delivery for the paper's FIFO
// channel assumption, and keeps it across a broken connection: the send
// loop redials with backoff and resends the batch it had not written.
func runNode(args []string, out io.Writer) error {
	cfg, err := parseNodeConfig(args, os.Stderr)
	if err != nil {
		return err
	}

	// Observability: one Metrics (histograms in wall-clock µs, D = cfg.D)
	// plus one trace ring feed every event source — transport, protocol
	// node, service layer — and back the -http endpoints.
	var observer rt.Observer
	var metrics *obs.Metrics
	var trace *obs.Trace
	if cfg.HTTP != "" {
		metrics = obs.NewWallMetrics(cfg.D)
		trace = obs.NewTrace(cfg.TraceCap)
		observer = obs.Multi{metrics, trace}
	}

	tn, err := transport.NewTCPNode(cfg.tcpConfig(observer))
	if err != nil {
		return err
	}
	defer tn.Close()

	// Crash-recovery: with -wal, replay the file's durable prefix (torn
	// tails are the normal shape of a crash) and rebuild the node from
	// it; new appends go to the same file, after the garbage tail replay
	// stopped at has been truncated away — appending behind it would make
	// every later record unreachable to the next replay, silently losing
	// durably-acted-on state on a second crash. AttachWAL/Recover must
	// happen before the handler is installed.
	var walW *wal.Writer
	var walSt *wal.State
	if cfg.WAL != "" {
		data, err := os.ReadFile(cfg.WAL)
		if err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("wal: %w", err)
		}
		if len(data) > 0 {
			walSt = wal.Recover(data, cfg.N, cfg.ID, nil)
			if walSt.Intact < len(data) {
				if err := os.Truncate(cfg.WAL, int64(walSt.Intact)); err != nil {
					return fmt.Errorf("wal: truncate torn tail: %w", err)
				}
			}
			fmt.Fprintf(out, "wal: replayed %d records from %s (frontier count=%d, tail: %v)\n",
				walSt.Records, cfg.WAL, walSt.Frontier.Count, walSt.TailErr)
		}
		f, err := os.OpenFile(cfg.WAL, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("wal: %w", err)
		}
		defer f.Close()
		walW = wal.NewWriter(f, chaos.WALBatch)
	}

	// Registry construction: the capability interfaces replace the old
	// per-algorithm switch. Config validation already guaranteed -wal is
	// only set for durable engines.
	var nd engine.Engine
	var rejoin func()
	if walSt != nil {
		nd = cfg.Info.Recover(tn.Runtime(), walSt, walW, true)
		rejoin = nd.(engine.Rejoiner).Rejoin
	} else {
		nd = cfg.Info.New(tn.Runtime())
		if walW != nil {
			nd.(engine.Durable).AttachWAL(walW, true)
		}
	}
	if observer != nil {
		if o, ok := nd.(engine.Observable); ok {
			o.SetObserver(observer)
		}
	}
	tn.SetHandler(nd)
	if rejoin != nil {
		rejoin()
		fmt.Fprintln(out, "wal: rejoined the cluster from the recovered checkpoint")
	}

	service := svc.New(tn.Runtime(), nd, cfg.svcOptions(observer))
	go func() {
		if err := service.Serve(); err != nil {
			log.Printf("service stopped: %v", err)
		}
	}()
	defer service.Close()

	if cfg.HTTP != "" {
		ln, err := net.Listen("tcp", cfg.HTTP)
		if err != nil {
			return fmt.Errorf("http listener: %w", err)
		}
		defer ln.Close()
		var walCounters func() wal.Counters
		if walW != nil {
			walCounters = walCountersOf(tn.Runtime(), walW)
		}
		go http.Serve(ln, obsMux(metrics, trace, walCounters))
		fmt.Fprintf(out, "metrics on http://%s/metrics, trace on http://%s/debug/trace, profiles on http://%s/debug/pprof/\n",
			ln.Addr(), ln.Addr(), ln.Addr())
	}

	if cfg.Clients != "" {
		ln, err := net.Listen("tcp", cfg.Clients)
		if err != nil {
			return fmt.Errorf("client listener: %w", err)
		}
		defer ln.Close()
		go acceptClients(ln, service)
		fmt.Fprintf(out, "client sessions on %s\n", ln.Addr())
	}

	fmt.Fprintf(out, "node %d/%d up (%s, f=%d, service mode %s); commands: update <value> | scan | stats | quit\n",
		cfg.ID, cfg.N, cfg.Engine, cfg.F, svc.ModeFor(cfg.Engine))
	session(os.Stdin, out, service, true)
	return nil
}

// obsMux serves the node's observability endpoints, including the
// standard pprof surface so saturation runs (`aso load` against this
// node) can be profiled live:
//
//	go tool pprof http://HOST:PORT/debug/pprof/profile?seconds=10
//	go tool pprof http://HOST:PORT/debug/pprof/heap
//
// walCounters, nil without -wal, adds the WAL families to /metrics.
func obsMux(metrics *obs.Metrics, trace *obs.Trace, walCounters func() wal.Counters) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := obs.WritePrometheus(w, metrics.Snapshot()); err != nil {
			log.Printf("/metrics: %v", err)
		}
		if walCounters != nil {
			c := walCounters()
			for _, m := range []struct {
				name, help string
				v          int64
			}{
				{"mpsnap_wal_appends_total", "Records appended to the write-ahead log.", c.Appends},
				{"mpsnap_wal_syncs_total", "File syncs the write-ahead log paid (syncs/appends is the group-commit ratio).", c.Syncs},
				{"mpsnap_wal_bytes_total", "Bytes written to the write-ahead log, framing included.", c.Bytes},
			} {
				fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", m.name, m.help, m.name, m.name, m.v)
			}
		}
	})
	mux.HandleFunc("/debug/trace", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/jsonl; charset=utf-8")
		if err := trace.WriteJSONL(w); err != nil {
			log.Printf("/debug/trace: %v", err)
		}
	})
	return mux
}

// walCountersOf reads the node's WAL counters the way everything else
// touches the writer: inside the node's critical section (the writer is
// owned by the protocol node and not safe for concurrent use).
func walCountersOf(r rt.Runtime, w *wal.Writer) func() wal.Counters {
	return func() (c wal.Counters) {
		r.Atomic(func() { c = w.Counters() })
		return c
	}
}

// acceptClients serves each inbound connection as an independent client
// session; all sessions share the node's service (and thus its batches).
func acceptClients(ln net.Listener, s *svc.Service) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		go func() {
			defer conn.Close()
			fmt.Fprintln(conn, "commands: update <value> | scan | stats | quit")
			session(conn, conn, s, false)
		}()
	}
}

// session runs the line protocol until quit or EOF. The prompt is only
// printed on the interactive stdin session.
func session(in io.Reader, out io.Writer, s *svc.Service, prompt bool) {
	sc := bufio.NewScanner(in)
	for {
		if prompt {
			fmt.Fprint(out, "> ")
		}
		if !sc.Scan() {
			return
		}
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		switch fields[0] {
		case "update", "u":
			if len(fields) < 2 {
				fmt.Fprintln(out, "usage: update <value>")
				continue
			}
			start := time.Now()
			if err := s.Update([]byte(strings.Join(fields[1:], " "))); err != nil {
				fmt.Fprintln(out, "error:", err)
				continue
			}
			fmt.Fprintf(out, "ok (%v)\n", time.Since(start).Round(time.Microsecond))
		case "scan", "s":
			start := time.Now()
			snap, err := s.Scan()
			if err != nil {
				fmt.Fprintln(out, "error:", err)
				continue
			}
			fmt.Fprintf(out, "snapshot (%v):\n", time.Since(start).Round(time.Microsecond))
			for seg, v := range snap {
				if v == nil {
					fmt.Fprintf(out, "  [%d] ⊥\n", seg)
				} else {
					fmt.Fprintf(out, "  [%d] %s\n", seg, v)
				}
			}
		case "stats":
			st := s.Stats()
			fmt.Fprintf(out, "updates=%d scans=%d protoUpdates=%d protoScans=%d maxBatch=%d rejected=%d queued=%d\n",
				st.Updates, st.Scans, st.ProtoUpdates, st.ProtoScans, st.MaxBatch, st.Rejected, s.QueueLen())
		case "quit", "q", "exit":
			return
		default:
			fmt.Fprintln(out, "commands: update <value> | scan | stats | quit")
		}
	}
}
