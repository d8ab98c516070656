package main

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestCommandTable: README's usage block is the table-derived usage text,
// and every `./cmd/aso <sub>` the Makefile and CI run names a row of the
// table (a removed or renamed subcommand fails here, not in a nightly).
func TestCommandTable(t *testing.T) {
	var want strings.Builder
	usage(&want)
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile("(?s)\\$ go run \\./cmd/aso\n(.*?)```").FindSubmatch(readme)
	if m == nil {
		t.Fatal("README.md has no `$ go run ./cmd/aso` usage block")
	}
	if got := string(m[1]); got != want.String() {
		t.Errorf("README.md usage block is\n%s\nthe command table prints\n%s", got, want.String())
	}

	known := make(map[string]bool)
	for _, c := range commands {
		if known[c.Name] {
			t.Errorf("subcommand %q is in the table twice", c.Name)
		}
		known[c.Name] = true
	}
	invocation := regexp.MustCompile(`\./cmd/(\w+)\s+(\S+)`)
	for _, path := range []string{"../../Makefile", "../../.github/workflows/ci.yml"} {
		text, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		found := invocation.FindAllSubmatch(text, -1)
		if len(found) == 0 {
			t.Errorf("%s runs no ./cmd/aso subcommand", path)
		}
		for _, inv := range found {
			if bin, sub := string(inv[1]), string(inv[2]); bin != "aso" || !known[sub] {
				t.Errorf("%s runs `./cmd/%s %s`, which is not a row of the command table", path, bin, sub)
			}
		}
	}
}
