package segment_test

import (
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"mpsnap/approx"
	"mpsnap/assettransfer"
	"mpsnap/consensus"
	"mpsnap/crdt"
	"mpsnap/detect"
	"mpsnap/internal/segment"
	"mpsnap/rsm"
	"mpsnap/statemachine"
)

var (
	errUpdate = errors.New("fake: update failed")
	errStuck  = errors.New("fake: no progress after 100 scans")
)

// fake is a three-segment snapshot object. Its Scan answers snap, or, with
// reflect set and once updated, the last update in segment 0 and ⊥
// elsewhere (an atomic object seen by node 0). Otherwise it never applies
// an update, so a node reading it sees its own writes only through
// segment.Own. An application that waits for a quorum it cannot see
// gets errStuck instead of scanning forever.
type fake struct {
	snap    [][]byte
	reflect bool
	updates [][]byte
	failAt  int // the 1-based update that returns errUpdate; 0 = none
	scans   int
}

func (f *fake) Update(p []byte) error {
	f.updates = append(f.updates, append([]byte(nil), p...))
	if len(f.updates) == f.failAt {
		return errUpdate
	}
	return nil
}

func (f *fake) Scan() ([][]byte, error) {
	if f.scans++; f.scans > 100 {
		return nil, errStuck
	}
	if f.reflect && len(f.updates) > 0 {
		return [][]byte{f.updates[len(f.updates)-1], nil, nil}, nil
	}
	return append([][]byte(nil), f.snap...), nil
}

func (f *fake) last() string { return hex.EncodeToString(f.updates[len(f.updates)-1]) }

// app is one application bound to a fake as node id: write ends with the
// Put of the row's sample value; read reports what a scan folds to.
type app struct {
	write func() error
	read  func() (string, error)
}

// codecRows has one row per application codec. golden pins the sample
// value's segment bytes, so a segment written by one build reads in
// another; want is what node 1 reads from a snapshot holding golden in
// segment 0. own marks the handles that take a node id and so substitute
// their last Put.
var codecRows = []struct {
	name, pkg, golden, want string
	own                     bool
	bind                    func(f *fake, id int) app
}{
	{name: "gcounter", pkg: "crdt", golden: "ac02", want: "300",
		bind: func(f *fake, id int) app {
			c := crdt.NewGCounter(f)
			return app{func() error { return c.Add(300) }, func() (string, error) { v, err := c.Value(); return fmt.Sprint(v), err }}
		}},
	{name: "pncounter", pkg: "crdt", golden: "0a04", want: "6",
		bind: func(f *fake, id int) app {
			c := crdt.NewPNCounter(f)
			return app{func() error { return errors.Join(c.Add(10), c.Add(-4)) },
				func() (string, error) { v, err := c.Value(); return fmt.Sprint(v), err }}
		}},
	{name: "2pset", pkg: "crdt", golden: "0201610162010162", want: "[a]",
		bind: func(f *fake, id int) app {
			s := crdt.NewTwoPhaseSet(f)
			return app{func() error { return errors.Join(s.Add("a"), s.Add("b"), s.Remove("b")) },
				func() (string, error) { v, err := s.Elements(); return fmt.Sprint(v), err }}
		}},
	{name: "orset", pkg: "crdt", golden: "0201780100020179010004010002", want: "[y]", own: true,
		bind: func(f *fake, id int) app {
			s := crdt.NewORSet(f, id)
			return app{func() error { return errors.Join(s.Add("x"), s.Add("y"), s.Remove("x")) },
				func() (string, error) { v, err := s.Elements(); return fmt.Sprint(v), err }}
		}},
	{name: "lww", pkg: "crdt", golden: "0402686900", want: "hi", own: true,
		bind: func(f *fake, id int) app {
			r := crdt.NewLWWRegister(f, id)
			return app{func() error { return errors.Join(r.Set([]byte("a")), r.Set([]byte("hi"))) },
				func() (string, error) { v, _, err := r.Get(); return string(v), err }}
		}},
	{name: "statemachine", pkg: "statemachine", golden: "0303696e63000364626c", want: "[{0 1 [105 110 99]} {0 2 []} {0 3 [100 98 108]}]", own: true,
		bind: func(f *fake, id int) app {
			m := statemachine.New(f, id)
			return app{func() error { return errors.Join(m.Apply([]byte("inc")), m.Apply(nil), m.Apply([]byte("dbl"))) },
				func() (string, error) { v, err := m.Query(); return fmt.Sprint(v), err }}
		}},
	{name: "assettransfer", pkg: "assettransfer", golden: "02021e0405", want: "[65 130 105]", own: true,
		bind: func(f *fake, id int) app {
			l, _ := assettransfer.New(f, id, 3, []uint64{100, 100, 100})
			return app{func() error { return errors.Join(l.Transfer(1, 30), l.Transfer(2, 5)) },
				func() (string, error) {
					var bals []uint64
					for a := 0; a < 3; a++ {
						b, err := l.Balance(a)
						if err != nil {
							return "", err
						}
						bals = append(bals, b)
					}
					return fmt.Sprint(bals), nil
				}}
		}},
	{name: "detect", pkg: "detect", golden: "010604", want: "[{true 3 2} {false 0 0} {false 0 0}]", own: true,
		bind: func(f *fake, id int) app {
			m := detect.New(f, id)
			return app{func() error {
				return errors.Join(m.Publish(func(s *detect.Status) { s.Active, s.Sent = true, 3 }),
					m.Publish(func(s *detect.Status) { s.Received = 2 }))
			}, func() (string, error) { v, err := m.Snapshot(); return fmt.Sprint(v), err }}
		}},
	{name: "approx", pkg: "approx", golden: "02403e000000000000403e000000000000", want: "30",
		bind: func(f *fake, id int) app {
			cfg := approx.Config{Lo: 0, Hi: 40, Epsilon: 20, N: 1}
			return app{func() error { _, err := approx.Agree(f, cfg, 30); return err },
				func() (string, error) { v, err := approx.Agree(f, cfg, 10); return fmt.Sprint(v), err }}
		}},
	{name: "consensus", pkg: "consensus", golden: "02010202", want: "1",
		bind: func(f *fake, id int) app {
			cfg := consensus.Config{N: 1, Rand: rand.New(rand.NewSource(1))}
			return app{func() error { _, err := consensus.Propose(f, cfg, 1); return err },
				func() (string, error) { v, err := consensus.Propose(f, cfg, 0); return fmt.Sprint(v), err }}
		}},
	{name: "rsm", pkg: "rsm", golden: "010463302d310105302f302f30010202010000", want: "[{0 0 1 [99 48 45 49]}]", own: true,
		bind: func(f *fake, id int) app {
			l, _ := rsm.New(f, id, rsm.Config{N: 1, Rand: rand.New(rand.NewSource(1))})
			return app{func() error { _, err := l.Append([]byte("c0-1")); return err },
				func() (string, error) { err := l.CatchUp(); return fmt.Sprint(l.Committed()), err }}
		}},
}

// TestApplicationCodecs is the contract every application keeps with its
// segment: the wire bytes do not change, a malformed segment is an error
// naming it, ⊥ contributes nothing, and a handle with a node id reads its
// own last Put where the snapshot lags, even when that Put's update
// failed.
func TestApplicationCodecs(t *testing.T) {
	for _, row := range codecRows {
		t.Run(row.name, func(t *testing.T) {
			golden, err := hex.DecodeString(row.golden)
			if err != nil {
				t.Fatal(err)
			}
			// Encode: node 0's writes end with golden's bytes.
			w := &fake{snap: make([][]byte, 3), reflect: true}
			if err := row.bind(w, 0).write(); err != nil {
				t.Fatalf("write: %v", err)
			}
			if got := w.last(); got != row.golden {
				t.Fatalf("wrote %s, want %s", got, row.golden)
			}
			// Decode: node 1 folds golden in segment 0, ⊥ in 1 and 2.
			got, err := row.bind(&fake{snap: [][]byte{golden, nil, nil}}, 1).read()
			if err != nil || got != row.want {
				t.Fatalf("read = %q, %v; want %q", got, err, row.want)
			}
			// A truncated segment is an error that names it.
			_, err = row.bind(&fake{snap: [][]byte{golden[:len(golden)-1], nil, nil}}, 1).read()
			if prefix := row.pkg + ": segment 0: "; err == nil || !strings.HasPrefix(err.Error(), prefix) {
				t.Fatalf("truncated segment: err = %v, want prefix %q", err, prefix)
			}
			if !row.own {
				return
			}
			// The snapshot never shows node 0's writes; its last Put stands
			// in, and after an update that failed, too.
			for _, failAt := range []int{0, len(w.updates)} {
				f := &fake{snap: make([][]byte, 3), failAt: failAt}
				a := row.bind(f, 0)
				if err := a.write(); (err != nil) != (failAt > 0) {
					t.Fatalf("failAt=%d: write: %v", failAt, err)
				}
				if got := f.last(); got != row.golden {
					t.Fatalf("failAt=%d: wrote %s over a lagging snapshot, want %s", failAt, got, row.golden)
				}
				if got, err := a.read(); err != nil || got != row.want {
					t.Fatalf("failAt=%d: read = %q, %v; want %q", failAt, got, err, row.want)
				}
			}
		})
	}
}

// TestOwnScan pins Own on its own: ⊥ is nil, a malformed segment is named,
// and only a handle with a node id substitutes its last Put.
func TestOwnScan(t *testing.T) {
	f := &fake{snap: [][]byte{nil, {7}, nil}, failAt: 1}
	own := segment.NewOwn(f, 0, "test", segment.Uvarint)
	if err := own.Put(300); !errors.Is(err, errUpdate) {
		t.Fatalf("Put: %v", err)
	}
	if own.Last() != 300 {
		t.Fatalf("Last = %d after a failed update, want 300", own.Last())
	}
	segs, err := own.Scan()
	if err != nil || len(segs) != 3 || segs[0] == nil || *segs[0] != 300 || *segs[1] != 7 || segs[2] != nil {
		t.Fatalf("Scan = %v, %v; want [300 7 ⊥]", segs, err)
	}
	anon := segment.NewOwn(f, -1, "test", segment.Uvarint)
	_ = anon.Put(1)
	if segs, _ := anon.Scan(); segs[0] != nil {
		t.Fatalf("id < 0 substituted %d for segment 0", *segs[0])
	}
	f.snap[1] = []byte{0x80}
	if _, err := own.Scan(); err == nil || !strings.HasPrefix(err.Error(), "test: segment 1: ") {
		t.Fatalf("malformed segment: err = %v", err)
	}
}
