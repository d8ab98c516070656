package main

import (
	"io"
	"reflect"
	"strings"
	"testing"

	"mpsnap/internal/chaos"
	"mpsnap/internal/rt"
)

func TestParseChaosConfig(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantErr string
		check   func(t *testing.T, c chaosConfig)
	}{
		{
			name: "defaults",
			args: nil,
			check: func(t *testing.T, c chaosConfig) {
				if !reflect.DeepEqual(c.Backends, []string{"sim", "tcp"}) {
					t.Errorf("backends: %v", c.Backends)
				}
				if c.Chaos.N != 5 || c.Chaos.F != 2 || c.Chaos.Engine != "eqaso" || c.Chaos.Seed != 1 {
					t.Errorf("chaos cfg: %+v", c.Chaos)
				}
				// 5s at 10ms per D.
				if c.Chaos.Duration != 500*rt.TicksPerD {
					t.Errorf("duration: %d ticks", c.Chaos.Duration)
				}
				if c.Chaos.TraceDir != "" || c.Chaos.TraceAlways {
					t.Errorf("tracing should default off: %+v", c.Chaos)
				}
			},
		},
		{
			name: "trace flags and backend list",
			args: []string{"-backend", "sim,chan", "-trace-dir", "traces", "-trace-cap", "99", "-trace-always", "-seed", "13"},
			check: func(t *testing.T, c chaosConfig) {
				if !reflect.DeepEqual(c.Backends, []string{"sim", "chan"}) {
					t.Errorf("backends: %v", c.Backends)
				}
				want := chaos.Config{TraceDir: "traces", TraceCap: 99, TraceAlways: true}
				if c.Chaos.TraceDir != want.TraceDir || c.Chaos.TraceCap != want.TraceCap || !c.Chaos.TraceAlways {
					t.Errorf("trace cfg: %+v", c.Chaos)
				}
				if c.Chaos.Seed != 13 {
					t.Errorf("seed: %d", c.Chaos.Seed)
				}
			},
		},
		{
			name: "all expands",
			args: []string{"-backend", "all"},
			check: func(t *testing.T, c chaosConfig) {
				if !reflect.DeepEqual(c.Backends, []string{"sim", "chan", "tcp"}) {
					t.Errorf("backends: %v", c.Backends)
				}
			},
		},
		{
			name: "engine flag selects any registered engine",
			args: []string{"-engine", "acr"},
			check: func(t *testing.T, c chaosConfig) {
				if c.Chaos.Engine != "acr" {
					t.Errorf("engine: %q", c.Chaos.Engine)
				}
			},
		},
		{
			name: "shards forward the engine to the cluster config",
			args: []string{"-shards", "2", "-engine", "fastsnap"},
			check: func(t *testing.T, c chaosConfig) {
				if c.Cluster.Engine != "fastsnap" || c.Cluster.Shards != 2 {
					t.Errorf("cluster cfg: engine=%q shards=%d", c.Cluster.Engine, c.Cluster.Shards)
				}
			},
		},
		{
			name: "shard-crash forwards with the topology and mix",
			args: []string{"-shards", "3", "-n", "3", "-f", "1", "-restarts", "1", "-seed", "7", "-scan-ratio", "0.2", "-shard-crash", "1"},
			check: func(t *testing.T, c chaosConfig) {
				r := c.Cluster
				if r.Shards != 3 || r.N != 3 || r.F != 1 || r.Seed != 7 || r.CrashShard != 1 || r.PartitionShard != -1 {
					t.Errorf("cluster cfg: %+v", r)
				}
				if r.Mix.Restarts != 1 || r.ScanRatio != 0.2 || r.Duration != c.Chaos.Duration {
					t.Errorf("cluster mix/workload: %+v", r)
				}
			},
		},
		{
			name: "shard-partition forwards",
			args: []string{"-shards", "2", "-shard-partition", "0"},
			check: func(t *testing.T, c chaosConfig) {
				if c.Cluster.PartitionShard != 0 || c.Cluster.CrashShard != -1 {
					t.Errorf("cluster cfg: %+v", c.Cluster)
				}
			},
		},
		{name: "shard-crash without shards", args: []string{"-shard-crash", "1"}, wantErr: "require -shards"},
		{name: "corrupts with shards", args: []string{"-shards", "2", "-corrupts", "1"}, wantErr: "-corrupts is not supported with -shards"},
		{name: "bad engine", args: []string{"-engine", "paxos"}, wantErr: "unknown engine"},
		{name: "alg alias removed", args: []string{"-alg", "eqaso"}, wantErr: "flag provided but not defined: -alg"},
		{name: "bad backend", args: []string{"-backend", "carrier-pigeon"}, wantErr: "unknown backend"},
		{name: "empty backend", args: []string{"-backend", ","}, wantErr: "no backend selected"},
		{name: "bad flag", args: []string{"-nope"}, wantErr: "flag provided but not defined"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, err := parseChaosConfig(tc.args, io.Discard)
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

// TestTraceLine: the failure report's one-line trace pointer carries the
// dump path, the seed, and the schedule digest.
func TestTraceLine(t *testing.T) {
	rep := &chaos.Result{
		TracePath:    "traces/chaos-eqaso-seed42-deadbeef.jsonl",
		ScheduleHash: "deadbeefdeadbeef",
		Schedule:     chaos.Schedule{Seed: 42},
	}
	got := traceLine(rep)
	for _, want := range []string{"traces/chaos-eqaso-seed42-deadbeef.jsonl", "seed=42", "schedule=deadbeefdeadbeef"} {
		if !strings.Contains(got, want) {
			t.Errorf("trace line %q missing %q", got, want)
		}
	}
	rep.TraceDropped = 7
	if got := traceLine(rep); !strings.Contains(got, "7 older events evicted") {
		t.Errorf("trace line %q missing eviction note", got)
	}
}
