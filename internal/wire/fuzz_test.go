package wire_test

import (
	"math/rand"
	"testing"

	"mpsnap/internal/wire"

	// Blank imports pull in every package that registers message codecs —
	// the whole engine registry, the sharded cluster's router messages, the
	// transport's own frames, and the lattice-agreement objects no engine
	// links — so the fuzz targets and benchmarks exercise the full registry
	// (TestRegistryComplete).
	_ "mpsnap/internal/cluster"
	_ "mpsnap/internal/engine/all"
	_ "mpsnap/internal/la"
	_ "mpsnap/internal/transport"
)

// FuzzWireRoundTrip: for every registered codec, a generated message must
// survive encode→decode→re-encode with byte-identical output (canonical
// encodings are what make the copy-through simulator deterministic).
func FuzzWireRoundTrip(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		for _, c := range wire.Registered() {
			msg := c.Gen(rng)
			if _, err := wire.Roundtrip(msg); err != nil {
				t.Fatalf("tag %d (%T): %v", c.Tag, c.Proto, err)
			}
			frame, err := wire.MarshalFrame(msg, 0)
			if err != nil {
				t.Fatalf("tag %d (%T): frame: %v", c.Tag, c.Proto, err)
			}
			if _, err := wire.UnmarshalFrame(frame, 0); err != nil {
				t.Fatalf("tag %d (%T): unframe: %v", c.Tag, c.Proto, err)
			}
		}
	})
}

// FuzzWireDecode: arbitrary bytes fed to the payload and frame decoders
// must produce either a message or an error — never a panic, and never an
// allocation beyond the input in hand.
func FuzzWireDecode(f *testing.F) {
	f.Add([]byte(nil))
	f.Add([]byte{wire.Version, 0, 0, 0, 0})
	rng := rand.New(rand.NewSource(1))
	for _, c := range wire.Registered() {
		payload, err := wire.Marshal(c.Gen(rng))
		if err != nil {
			continue // composite over an unregistered nested type: impossible here
		}
		f.Add(payload)
		frame, err := wire.MarshalFrame(c.Gen(rng), 0)
		if err == nil {
			f.Add(frame)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if msg, err := wire.Unmarshal(data); err == nil {
			// Whatever decoded must re-encode cleanly (it is a registered
			// type by construction).
			if _, err := wire.Marshal(msg); err != nil {
				t.Fatalf("decoded %T but re-encode failed: %v", msg, err)
			}
		}
		_, _ = wire.UnmarshalFrame(data, 0)
	})
}

// TestRegistryComplete pins what the fuzz targets cover to DESIGN.md's tag
// map: every package's block, with its codec count. A codec registered
// outside the table, or a package this file stopped linking, fails here
// instead of silently leaving a message set un-fuzzed.
func TestRegistryComplete(t *testing.T) {
	blocks := []struct {
		pkg    string
		lo, hi uint16
		n      int
	}{
		{"mux", 1, 1, 1}, {"transport", 2, 2, 1}, {"eqaso", 16, 29, 14}, {"la", 32, 38, 7},
		{"laaso", 48, 56, 9}, {"abd", 64, 67, 4}, {"rbc", 80, 82, 3}, {"byzaso", 96, 100, 5},
		{"cluster", 112, 119, 6}, {"regsnap", 128, 134, 6},
	}
	got := make([]int, len(blocks))
next:
	for _, c := range wire.Registered() {
		for i, b := range blocks {
			if b.lo <= c.Tag && c.Tag <= b.hi {
				got[i]++
				continue next
			}
		}
		t.Errorf("tag %d (%T) is in no block of the tag table", c.Tag, c.Proto)
	}
	for i, b := range blocks {
		if got[i] != b.n {
			t.Errorf("%s: %d codecs registered in tags %d–%d, the tag table says %d", b.pkg, got[i], b.lo, b.hi, b.n)
		}
	}
}
