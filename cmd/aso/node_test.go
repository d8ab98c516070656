package main

import (
	"bytes"
	"errors"
	"io"
	"log"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"mpsnap/internal/chaos"
	"mpsnap/internal/eqaso"
	"mpsnap/internal/obs"
	"mpsnap/internal/rt"
	"mpsnap/internal/svc"
	"mpsnap/internal/transport"
	"mpsnap/internal/wal"
)

func TestParseNodeConfig(t *testing.T) {
	addrs := "-addrs=:7000,:7001,:7002,:7003,:7004"
	cases := []struct {
		name    string
		args    []string
		wantErr string
		check   func(t *testing.T, c nodeConfig)
	}{
		{
			name: "defaults",
			args: []string{addrs},
			check: func(t *testing.T, c nodeConfig) {
				if c.N != 5 || c.F != 2 {
					t.Errorf("n=%d f=%d, want 5/2", c.N, c.F)
				}
				if c.Engine != "eqaso" || c.D != 10*time.Millisecond {
					t.Errorf("engine=%q d=%v", c.Engine, c.D)
				}
				if c.HTTP != "" || c.TraceCap != 4096 {
					t.Errorf("http=%q traceCap=%d", c.HTTP, c.TraceCap)
				}
			},
		},
		{
			name: "byzaso default f",
			args: []string{addrs, "-addrs=:1,:2,:3,:4,:5,:6,:7", "-engine", "byzaso"},
			check: func(t *testing.T, c nodeConfig) {
				if c.Engine != "byzaso" || c.F != 2 {
					t.Errorf("engine=%q f=%d, want byzaso/(7-1)/3=2", c.Engine, c.F)
				}
			},
		},
		{
			name: "engine flag selects any registered engine",
			args: []string{addrs, "-engine", "fastsnap"},
			check: func(t *testing.T, c nodeConfig) {
				if c.Engine != "fastsnap" || c.F != 2 {
					t.Errorf("engine=%q f=%d, want fastsnap/2", c.Engine, c.F)
				}
			},
		},
		{
			name: "explicit flags",
			args: []string{addrs, "-id", "3", "-f", "1", "-http", ":9090", "-trace-cap", "64", "-d", "5ms"},
			check: func(t *testing.T, c nodeConfig) {
				if c.ID != 3 || c.F != 1 || c.HTTP != ":9090" || c.TraceCap != 64 || c.D != 5*time.Millisecond {
					t.Errorf("got %+v", c)
				}
			},
		},
		{name: "no addrs", args: nil, wantErr: "at least 3"},
		{name: "two addrs", args: []string{"-addrs=:1,:2"}, wantErr: "at least 3"},
		{name: "alg alias removed", args: []string{addrs, "-alg", "eqaso"}, wantErr: "flag provided but not defined: -alg"},
		{name: "gc flag removed", args: []string{addrs, "-wal", "x.wal", "-gc"}, wantErr: "flag provided but not defined: -gc"},
		{name: "bad engine", args: []string{addrs, "-engine", "raft"}, wantErr: "unknown engine"},
		{name: "id out of range", args: []string{addrs, "-id", "5"}, wantErr: "out of range"},
		{name: "f too big", args: []string{addrs, "-f", "2", "-addrs=:1,:2,:3"}, wantErr: "n > 2f"},
		{name: "byzaso f too big", args: []string{addrs, "-engine", "byzaso", "-f", "2"}, wantErr: "n > 3f"},
		{name: "wal needs durability", args: []string{addrs, "-engine", "fastsnap", "-wal", "x.wal"}, wantErr: "no WAL support"},
		{name: "bad trace cap", args: []string{addrs, "-trace-cap", "0"}, wantErr: "-trace-cap"},
		{name: "bad flag", args: []string{"-nope"}, wantErr: "flag provided but not defined"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, err := parseNodeConfig(tc.args, io.Discard)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err=%v, want containing %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			tc.check(t, c)
		})
	}
}

// TestSvcOptionsRunTheMeasuredPath pins the deployed node's service front
// to its command line: the engine's serving mode, the queue bound and the
// observer.
func TestSvcOptionsRunTheMeasuredPath(t *testing.T) {
	c, err := parseNodeConfig([]string{"-addrs=:1,:2,:3", "-engine", "sso", "-max-pending", "512"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	trace := obs.NewTrace(4)
	o := c.svcOptions(trace)
	if o.Mode != svc.ModeSequential || o.MaxPending != 512 || o.Observer != rt.Observer(trace) {
		t.Errorf("mode=%v maxPending=%d observer=%v", o.Mode, o.MaxPending, o.Observer)
	}
}

// TestTCPConfigLogsDroppedPeers pins the deployed node's error hook: a
// peer connection the transport drops must leave a log line, not vanish
// into TCPNode.Errors, which no long-running process reads.
func TestTCPConfigLogsDroppedPeers(t *testing.T) {
	c, err := parseNodeConfig([]string{"-id", "1", "-addrs=:1,:2,:3", "-dial-timeout", "3s"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	tc := c.tcpConfig(nil)
	if tc.ID != 1 || len(tc.Addrs) != 3 || tc.F != 1 || tc.D != c.D || tc.DialTimeout != 3*time.Second {
		t.Errorf("tcpConfig = %+v, want the parsed topology", tc)
	}
	if tc.OnError == nil {
		t.Fatal("OnError unset: dropped peer connections would be silent")
	}
	var buf bytes.Buffer
	log.SetOutput(&buf)
	defer log.SetOutput(os.Stderr)
	tc.OnError(2, errors.New("bad frame version"))
	if got := buf.String(); !strings.Contains(got, "peer 2: bad frame version") {
		t.Errorf("log output %q does not name the peer and the error", got)
	}
}

// TestObsMux drives the /metrics and /debug/trace handlers directly.
func TestObsMux(t *testing.T) {
	metrics := obs.NewWallMetrics(10 * time.Millisecond)
	trace := obs.NewTrace(16)
	for _, o := range []rt.Observer{metrics, trace} {
		o.OnOp(rt.OpEvent{T: 5, Node: 0, ID: 1, Op: "update", Phase: rt.PhaseEnd, Dur: 2000})
		o.OnMsg(rt.MsgEvent{T: 5, Event: rt.MsgSend, Src: 0, Dst: 1, Kind: "value"})
	}
	mux := obsMux(metrics, trace, nil)

	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	if !strings.Contains(body, "mpsnap_op_latency_us_count") {
		t.Errorf("/metrics missing latency count:\n%s", body)
	}
	if !strings.Contains(body, "mpsnap_messages_total") {
		t.Errorf("/metrics missing message counter:\n%s", body)
	}

	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/trace", nil))
	lines := strings.Split(strings.TrimSpace(rec.Body.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("/debug/trace: got %d lines, want 2:\n%s", len(lines), rec.Body.String())
	}
	if !strings.Contains(lines[0], `"op":"update"`) {
		t.Errorf("trace line missing op event: %s", lines[0])
	}

	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/pprof/", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), "goroutine") {
		t.Errorf("/debug/pprof/ index: code %d body:\n%.200s", rec.Code, rec.Body.String())
	}
	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/pprof/heap?debug=1", nil))
	if rec.Code != 200 {
		t.Errorf("/debug/pprof/heap: code %d", rec.Code)
	}
}

// TestMetricsExportWALCounters: a durable node's /metrics carries the WAL
// families, and they show the group commit an operator should see — ten
// updates through one node of a loopback cluster cost it at most one file
// sync each (plus slack for a batch threshold crossed by received values),
// not one per checkpoint and prune on top.
func TestMetricsExportWALCounters(t *testing.T) {
	const n, updates = 3, 10
	mesh, err := transport.LoopbackMesh(n, transport.TCPConfig{F: 1, D: 10 * time.Millisecond, DialTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]*eqaso.Node, n)
	var w0 *wal.Writer
	for i, tn := range mesh {
		defer tn.Close()
		w := wal.NewWriter(wal.NewMemFile(), chaos.WALBatch)
		if i == 0 {
			w0 = w
		}
		nodes[i] = eqaso.New(tn.Runtime())
		nodes[i].AttachWAL(w, true)
		tn.SetHandler(nodes[i])
	}
	for i := 0; i < updates; i++ {
		if err := nodes[0].Update([]byte{byte(i)}); err != nil {
			t.Fatalf("update %d: %v", i, err)
		}
	}
	mux := obsMux(obs.NewWallMetrics(10*time.Millisecond), obs.NewTrace(16), walCountersOf(mesh[0].Runtime(), w0))
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	read := func(name string) int64 {
		for _, line := range strings.Split(rec.Body.String(), "\n") {
			if v, ok := strings.CutPrefix(line, name+" "); ok {
				x, err := strconv.ParseInt(v, 10, 64)
				if err != nil {
					t.Fatalf("%s: %v", line, err)
				}
				return x
			}
		}
		t.Fatalf("/metrics has no %s:\n%s", name, rec.Body.String())
		return 0
	}
	appends, syncs, bytes := read("mpsnap_wal_appends_total"), read("mpsnap_wal_syncs_total"), read("mpsnap_wal_bytes_total")
	if syncs < updates || syncs > updates+2 {
		t.Errorf("%d syncs for %d updates, want one each (+2 at most)", syncs, updates)
	}
	if appends < 2*updates || bytes < 10*appends {
		t.Errorf("appends %d, bytes %d: want the values and their checkpoints counted", appends, bytes)
	}
	if st := nodes[0].Stats(); st.WALSyncs != syncs || st.WALAppends != appends {
		t.Errorf("Stats reports %d appends / %d syncs, /metrics %d / %d", st.WALAppends, st.WALSyncs, appends, syncs)
	}
}
