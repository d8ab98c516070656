package main

import (
	"io"
	"strings"
	"testing"

	"mpsnap/internal/bench"
)

func TestParseBenchConfig(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		want    benchConfig
		wantErr string
	}{
		{
			name: "defaults",
			args: nil,
			want: benchConfig{Exp: "all", Seed: 1},
		},
		{
			name: "latency with json",
			args: []string{"-e", "latency", "-json", "BENCH_latency.json", "-seed", "7", "-quick"},
			want: benchConfig{Exp: "latency", Quick: true, Seed: 7, JSONPath: "BENCH_latency.json"},
		},
		{name: "every known experiment parses", args: []string{"-e", "table1"}, want: benchConfig{Exp: "table1", Seed: 1}},
		{name: "unknown experiment", args: []string{"-e", "warp"}, wantErr: "unknown experiment"},
		{name: "codec was removed", args: []string{"-e", "codec"}, wantErr: "unknown experiment"},
		// One -json path holds one report: -e all would have every
		// experiment overwrite the last, a table-only one writes nothing.
		{name: "json with all", args: []string{"-json", "out.json"}, wantErr: "-json needs -e"},
		{name: "json with a table-only experiment", args: []string{"-e", "table1", "-json", "x.json"}, wantErr: "-json needs -e"},
		{
			name: "json with an explicit-only experiment",
			args: []string{"-e", "wallclock", "-json", "BENCH_wallclock.json", "-check"},
			want: benchConfig{Exp: "wallclock", Seed: 1, JSONPath: "BENCH_wallclock.json", Check: true},
		},
		{name: "bad flag", args: []string{"-nope"}, wantErr: "flag provided but not defined"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := parseBenchConfig(tc.args, io.Discard)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err=%v, want containing %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if got != tc.want {
				t.Fatalf("got %+v want %+v", got, tc.want)
			}
		})
	}
	// The -e vocabulary is the experiment table, help text included.
	var help strings.Builder
	_, _ = parseBenchConfig([]string{"-h"}, &help)
	for _, e := range bench.Experiments {
		if _, err := parseBenchConfig([]string{"-e", e.Name}, io.Discard); err != nil {
			t.Errorf("experiment %q rejected: %v", e.Name, err)
		}
		if !strings.Contains(help.String(), e.Name+"|") {
			t.Errorf("-h does not list %q:\n%s", e.Name, help.String())
		}
	}
}
