package main

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"

	"mpsnap/internal/chaos"
	"mpsnap/internal/rt"
)

// parseChaosCases are TestParseChaosConfig's rows; the ones that parse
// are TestReproduceLineRoundTrips' inputs too.
var parseChaosCases = []struct {
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
			if c.Chaos.Engine != "fastsnap" || c.Chaos.Shards != 2 {
				t.Errorf("chaos cfg: engine=%q shards=%d", c.Chaos.Engine, c.Chaos.Shards)
			}
		},
	},
	{
		name: "shard-crash forwards with the topology and mix",
		args: []string{"-shards", "3", "-n", "3", "-f", "1", "-restarts", "1", "-seed", "7", "-scan-ratio", "0.2", "-shard-crash", "1"},
		check: func(t *testing.T, c chaosConfig) {
			r := c.Chaos
			if r.Shards != 3 || r.N != 3 || r.F != 1 || r.Seed != 7 || r.ShardCrash != 1 || r.ShardPartition != -1 {
				t.Errorf("chaos cfg: %+v", r)
			}
			if r.Mix.Restarts != 1 || r.ScanRatio != 0.2 {
				t.Errorf("chaos mix/workload: %+v", r)
			}
		},
	},
	{
		name: "shard-partition forwards",
		args: []string{"-shards", "2", "-shard-partition", "0"},
		check: func(t *testing.T, c chaosConfig) {
			if c.Chaos.ShardPartition != 0 || c.Chaos.ShardCrash != -1 {
				t.Errorf("chaos cfg: %+v", c.Chaos)
			}
		},
	},
	{
		name: "fault mix and monitor flags",
		args: []string{"-restarts", "2", "-partitions", "1", "-drops", "3", "-drop-prob", "0.5", "-spikes", "1",
			"-corrupts", "1", "-monitor", "-monitor-window", "50", "-scan-ratio", "0.3"},
		check: func(t *testing.T, c chaosConfig) {
			want := chaos.Mix{Crashes: 1, Partitions: 1, DropWindows: 3, DropProb: 0.5, SpikeWindows: 1,
				SpikeExtraD: 3, CorruptWindows: 1, CorruptProb: 0.2, Restarts: 2}
			if c.Chaos.Mix != want || !c.Chaos.Monitor || c.Chaos.MonitorWindow != 50*rt.TicksPerD || c.Chaos.ScanRatio != 0.3 {
				t.Errorf("chaos cfg: %+v", c.Chaos)
			}
		},
	},
	{
		name: "churn",
		args: []string{"-churn", "-engine", "acr", "-seed", "2"},
		check: func(t *testing.T, c chaosConfig) {
			if !c.Chaos.Churn || c.Chaos.Engine != "acr" {
				t.Errorf("chaos cfg: %+v", c.Chaos)
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

func TestParseChaosConfig(t *testing.T) {
	for _, tc := range parseChaosCases {
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

// TestReproduceLineRoundTrips: for every row of TestParseChaosConfig that
// parses, the reproduce line parses back to an equal chaos.Config with the
// same schedule, so a failing run's line injects the faults it failed
// under.
func TestReproduceLineRoundTrips(t *testing.T) {
	for _, tc := range parseChaosCases {
		if tc.wantErr != "" {
			continue
		}
		c, err := parseChaosConfig(tc.args, io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		line := c.reproduce("sim")
		args := strings.Fields(line)
		if len(args) < 2 || args[0] != "aso" || args[1] != "chaos" {
			t.Fatalf("%s: reproduce line %q", tc.name, line)
		}
		again, err := parseChaosConfig(args[2:], io.Discard)
		if err != nil {
			t.Fatalf("%s: %q does not parse: %v", tc.name, line, err)
		}
		if !reflect.DeepEqual(c.Chaos, again.Chaos) {
			t.Errorf("%s: %q parses to\n%+v\nwant\n%+v", tc.name, line, again.Chaos, c.Chaos)
		}
		s1, err1 := c.Chaos.Schedule()
		s2, err2 := again.Chaos.Schedule()
		if err1 != nil || err2 != nil || s1.Hash() != s2.Hash() {
			t.Errorf("%s: %q: schedule %s (%v), want %s (%v)", tc.name, line, s2.Hash(), err2, s1.Hash(), err1)
		}
	}
}

// TestShardedFailurePrintsReproduceLine: a sharded run too short for any
// coordinator cut fails (no validated cut), aso chaos returns errFailed,
// and the report ends with the whole command line that replays it.
func TestShardedFailurePrintsReproduceLine(t *testing.T) {
	var out bytes.Buffer
	err := runChaos([]string{"-backend", "sim", "-shards", "2", "-shard-crash", "1", "-n", "3", "-f", "1",
		"-restarts", "1", "-seed", "3", "-duration", "200ms"}, &out)
	if !errors.Is(err, errFailed) {
		t.Fatalf("err = %v, want errFailed\n%s", err, out.String())
	}
	want := "reproduce: aso chaos -backend sim -duration 200ms -f 1 -n 3 -restarts 1 -seed 3 -shard-crash 1 -shards 2\n"
	if !strings.Contains(out.String(), want) {
		t.Errorf("report lacks %q:\n%s", want, out.String())
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
