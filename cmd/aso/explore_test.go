package main

import (
	"fmt"
	"strings"
	"testing"

	"mpsnap/internal/explore"
)

// TestExploreReportsRejectedCells: a Byzantine engine on the table's
// crash-fault topologies is reported row by row with its Validate error,
// not run, and the command succeeds; an unknown name is an error.
func TestExploreReportsRejectedCells(t *testing.T) {
	for _, eng := range []string{"byzaso", "sso-byz"} {
		var out strings.Builder
		if err := runExplore([]string{"-engine", eng}, &out); err != nil {
			t.Fatalf("%s: %v\n%s", eng, err, out.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		if len(lines) != len(explore.Scenarios) {
			t.Fatalf("%s: %d lines for %d rows:\n%s", eng, len(lines), len(explore.Scenarios), out.String())
		}
		for i, sc := range explore.Scenarios {
			want := fmt.Sprintf("%s/%s: not run — engine %s: need n > 3f, got n=%d f=%d", sc.Name, eng, eng, sc.N, sc.F)
			if lines[i] != want {
				t.Errorf("line %d is %q, want %q", i, lines[i], want)
			}
		}
	}
	if err := runExplore([]string{"-engine", "paxos"}, &strings.Builder{}); err == nil || !strings.Contains(err.Error(), "unknown engine") {
		t.Fatalf("unknown engine: err=%v", err)
	}
}
