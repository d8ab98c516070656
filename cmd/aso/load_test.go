package main

import (
	"io"
	"strings"
	"testing"
	"time"
)

func TestParseLoadConfigDefaults(t *testing.T) {
	cfg, err := parseLoadConfig(nil, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Gen.Engine != "eqaso" || cfg.Gen.N != 4 || cfg.Gen.Clients != 64 {
		t.Errorf("defaults: engine=%q n=%d clients=%d", cfg.Gen.Engine, cfg.Gen.N, cfg.Gen.Clients)
	}
	if cfg.Gen.Duration != 2*time.Second || cfg.Gen.Warmup != 500*time.Millisecond {
		t.Errorf("defaults: duration=%v warmup=%v", cfg.Gen.Duration, cfg.Gen.Warmup)
	}
	if cfg.Gen.Rate != 0 {
		t.Errorf("defaults: rate=%g", cfg.Gen.Rate)
	}
}

func TestParseLoadConfigFull(t *testing.T) {
	cfg, err := parseLoadConfig(strings.Fields(
		"-engine fastsnap -n 7 -f 3 -clients 1024 -duration 5s -warmup 1s "+
			"-scans 25 -rate 50000 -payload 64 -seed 9 "+
			"-d 2ms -max-pending 8192 -json out.json -quiet"), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	g := cfg.Gen
	if g.Engine != "fastsnap" || g.N != 7 || g.F != 3 || g.Clients != 1024 {
		t.Errorf("parsed: engine=%q n=%d f=%d clients=%d", g.Engine, g.N, g.F, g.Clients)
	}
	if g.Duration != 5*time.Second || g.Warmup != time.Second || g.D != 2*time.Millisecond {
		t.Errorf("parsed: duration=%v warmup=%v d=%v", g.Duration, g.Warmup, g.D)
	}
	if g.ScanPct != 25 || g.Rate != 50000 {
		t.Errorf("parsed: scans=%d rate=%g", g.ScanPct, g.Rate)
	}
	if g.Payload != 64 || g.Seed != 9 || g.MaxPending != 8192 {
		t.Errorf("parsed: payload=%d seed=%d max-pending=%d", g.Payload, g.Seed, g.MaxPending)
	}
	if cfg.JSONPath != "out.json" || !cfg.Quiet {
		t.Errorf("parsed: json=%q quiet=%v", cfg.JSONPath, cfg.Quiet)
	}
}

func TestParseLoadConfigRejects(t *testing.T) {
	for _, args := range [][]string{
		{"-n", "1"},                   // mesh too small
		{"-clients", "0"},             // no sessions
		{"-scans", "101"},             // mix out of range
		{"-scans", "-1"},              // mix out of range
		{"-rate", "-1"},               // negative arrival rate
		{"-n", "5", "-f", "3"},        // f > (n-1)/2
		{"-engine", "raft"},           // not in the registry
		{"-bogus"},                    // unknown flag
		{"-legacy"},                   // removed in PR 13 with the legacy stack
		{"-flush", "50us"},            // removed in PR 13 (fixed transport constant)
		{"-keys", "1024"},             // removed in PR 25 (a key only picked a node)
		{"-zipf", "1.2"},              // removed in PR 25 with -keys
		{"positional"},                // stray argument
		{"-duration", "not-a-number"}, // malformed duration
	} {
		if _, err := parseLoadConfig(args, io.Discard); err == nil {
			t.Errorf("parseLoadConfig(%v): want error, got nil", args)
		}
	}
}

// TestParseLoadConfigTopology: the shared flag set resolves -f by the
// engine's fault model, so a Byzantine engine gets the registry's n > 3f
// rule (asoload's own f <= (n-1)/2 check let byzaso n=5 f=2 through to a
// panic inside rbc.New) and f = 0 means the most that model allows.
func TestParseLoadConfigTopology(t *testing.T) {
	_, err := parseLoadConfig(strings.Fields("-engine byzaso -n 5 -f 2"), io.Discard)
	if err == nil || !strings.Contains(err.Error(), "n > 3f") {
		t.Errorf("byzaso n=5 f=2: err=%v, want the registry's n > 3f error", err)
	}
	for _, tc := range []struct {
		args string
		f    int
	}{
		{"-engine byzaso -n 7", 2},
		{"-engine eqaso -n 7", 3},
		{"-n 4", 1},
	} {
		cfg, err := parseLoadConfig(strings.Fields(tc.args), io.Discard)
		if err != nil || cfg.Gen.F != tc.f {
			t.Errorf("%s: f=%d err=%v, want f=%d", tc.args, cfg.Gen.F, err, tc.f)
		}
	}
}
