package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// Differential harness: drive a ValueLog and the reference per-peer
// ValueSets (the map engine) through the same operation stream and check
// that every query agrees. The stream is decoded from bytes so the same
// harness serves the property test (random seeds) and the fuzz target.
//
// Payloads are a function of the timestamp, matching the protocol
// invariant that a timestamp names exactly one written value.
//
// Every view the log hands out is also remembered, with what it held, and
// re-read after each later step: a published view must never change,
// whichever piece of the log the steps since have copied, sealed or pruned.
// Streams run with the window capacity shrunk so that their ≤ 320 values
// cross the sealed/window boundary.

const diffNodes = 5

type diffState struct {
	log  *ValueLog
	sets []*ValueSet // sets[j] mirrors V[j]; self is node 0
	// GC bookkeeping: the oracle never prunes, so the harness remembers
	// which timestamps the log garbage-collected and the tag floor below
	// which the equivalence contract no longer applies.
	pruned map[Timestamp]bool
	floor  Tag
	pub    []publishedView
}

// publishedView is a view the log handed out and what it held then.
type publishedView struct {
	view View
	ts   []Timestamp
	pays [][]byte
}

// publish remembers v for verifyPublished.
func (d *diffState) publish(v View) View {
	p := publishedView{view: v}
	v.Each(func(val Value) {
		p.ts = append(p.ts, val.TS)
		p.pays = append(p.pays, val.Payload)
	})
	d.pub = append(d.pub, p)
	return v
}

// verifyPublished re-reads every remembered view.
func (d *diffState) verifyPublished() {
	for k, p := range d.pub {
		if p.view.Len() != len(p.ts) {
			panic(fmt.Sprintf("published view %d changed length: %d, was %d", k, p.view.Len(), len(p.ts)))
		}
		i := 0
		p.view.Each(func(val Value) {
			if val.TS != p.ts[i] || !bytes.Equal(val.Payload, p.pays[i]) {
				panic(fmt.Sprintf("published view %d changed at %d: %v %q, was %v %q",
					k, i, val.TS, val.Payload, p.ts[i], p.pays[i]))
			}
			i++
		})
	}
}

func newDiffState() *diffState {
	d := &diffState{
		log:    NewValueLog(diffNodes, 0),
		sets:   make([]*ValueSet, diffNodes),
		pruned: make(map[Timestamp]bool),
	}
	for j := range d.sets {
		d.sets[j] = NewValueSet()
	}
	return d
}

func diffValue(tag Tag, w int) Value {
	return Value{TS: Timestamp{Tag: tag, Writer: w}, Payload: []byte(fmt.Sprintf("p%d-%d", tag, w))}
}

// step decodes one operation from data[i:] and applies it to both
// engines, returning the number of bytes consumed (0 when exhausted).
func (d *diffState) step(data []byte, i int) int {
	if i+3 >= len(data) {
		return 0
	}
	op, a, b, c := data[i], data[i+1], data[i+2], data[i+3]
	switch op % 8 {
	case 5:
		// Global vouch + GC: deliver the full retained view to every peer
		// in both engines — modelling the catch-up a real vouch round
		// implies (NoteVouch advances cursors only for values every node
		// provably holds) — then prune below the current frontier.
		all := d.publish(d.log.AllView())
		for j := 1; j < diffNodes; j++ {
			all.Each(func(v Value) {
				d.log.Add(j, v)
				d.sets[j].Add(v)
			})
		}
		ck := d.log.Frontier()
		if idx := ck.Count - d.log.PrunedCount(); idx > 0 {
			for k := 0; k < idx; k++ {
				d.pruned[all.At(k).TS] = true
			}
			if !d.log.PruneTo(ck) {
				panic(fmt.Sprintf("PruneTo refused globally-vouched %+v", ck))
			}
			if ck.Tag > d.floor {
				d.floor = ck.Tag
			}
		}
	case 6:
		// Advance the frontier, as a good lattice operation would.
		d.log.AdvanceFrontier(Tag(1 + a%64))
	case 7:
		// Checkpoint round-trip: split a view at the frontier and
		// recompose it; the result must equal the original.
		ck := d.log.Frontier()
		view := d.publish(d.log.ViewLE(Tag(1 + a%64)))
		if delta, ok := d.log.DeltaAbove(view, ck); ok {
			if got, ok2 := d.log.ComposeAt(ck, delta); !ok2 || !got.Equal(view) {
				panic(fmt.Sprintf("compose(%+v) != original view %v", ck, view))
			} else {
				d.publish(got)
			}
		}
	default:
		// Value arrival from src: into V[src] and V[self], both engines.
		src := int(a) % diffNodes
		v := diffValue(Tag(1+b%64), int(c)%diffNodes)
		if v.TS.Tag <= d.floor && !d.log.Has(v.TS) {
			// A new value at or below a pruned checkpoint tag: the
			// protocol cannot produce one (new tags always exceed vouched
			// frontiers) and the log rejects it, so skip both engines.
			return 4
		}
		d.log.Add(src, v)
		d.sets[src].Add(v)
		d.sets[0].Add(v)
	}
	return 4
}

// retained filters the oracle's view down to the values the log still
// holds physically, so physical view comparisons stay meaningful after GC.
func (d *diffState) retained(mv View) View {
	if len(d.pruned) == 0 {
		return mv
	}
	var out []Value
	mv.Each(func(v Value) {
		if !d.pruned[v.TS] {
			out = append(out, v)
		}
	})
	return ViewOf(out...)
}

func (d *diffState) check(t *testing.T) {
	t.Helper()
	if got, want := d.log.SelfLen(), d.sets[0].Len(); got != want {
		t.Fatalf("SelfLen: log %d, map %d", got, want)
	}
	for j := 0; j < diffNodes; j++ {
		if got, want := d.log.Len(j), d.sets[j].Len(); got != want {
			t.Fatalf("Len(%d): log %d, map %d", j, got, want)
		}
		for _, r := range []Tag{0, 3, 17, 40, 64, MaxTag} {
			if r < d.floor {
				continue // below the pruned checkpoint: out of contract
			}
			if got, want := d.log.CountLE(j, r), d.sets[j].CountLE(r); got != want {
				t.Fatalf("CountLE(%d, %d): log %d, map %d", j, r, got, want)
			}
			lv, mv := d.publish(d.log.PeerViewLE(j, r)), d.sets[j].ViewLE(r)
			if !slices.Equal(lv.Timestamps(), d.retained(mv).Timestamps()) || !lv.Equal(mv) {
				t.Fatalf("PeerViewLE(%d, %d): log %v, map %v", j, r, lv, mv)
			}
			// Extraction must stay exact across GC: the pruned-prefix
			// summary stands in for the physically absent values.
			le, me := lv.Extract(diffNodes), mv.Extract(diffNodes)
			for w := range le {
				if !bytes.Equal(le[w], me[w]) {
					t.Fatalf("PeerViewLE(%d, %d).Extract[%d]: log %q, map %q", j, r, w, le[w], me[w])
				}
			}
		}
	}
	for _, r := range []Tag{0, 11, 32, 64, MaxTag} {
		if r < d.floor {
			continue
		}
		lv, mv := d.publish(d.log.ViewLE(r)), d.sets[0].ViewLE(r)
		if !slices.Equal(lv.Timestamps(), d.retained(mv).Timestamps()) || !lv.Equal(mv) {
			t.Fatalf("ViewLE(%d): log %v, map %v", r, lv, mv)
		}
		if got, want := lv.LogicalLen(), mv.Len(); got != want {
			t.Fatalf("ViewLE(%d).LogicalLen: log %d, map %d", r, got, want)
		}
		le, me := lv.Extract(diffNodes), mv.Extract(diffNodes)
		for w := range le {
			if !bytes.Equal(le[w], me[w]) {
				t.Fatalf("Extract(%d)[%d]: log %q, map %q", r, w, le[w], me[w])
			}
		}
		// EQ-tracker equivalence: both constructions must agree on the
		// predicate at every quorum size; the log's tracker is re-armed
		// each time, as a node re-arms its one.
		var lt EQTracker
		for q := 1; q <= diffNodes; q++ {
			lt.ResetFromLog(d.log, r, q)
			mt := NewEQTracker(d.sets, 0, r, q)
			if lt.Satisfied() != mt.Satisfied() {
				t.Fatalf("EQTracker(r=%d, q=%d): log %v, map %v", r, q, lt.Satisfied(), mt.Satisfied())
			}
		}
	}
	// Membership must agree on every timestamp either engine can hold;
	// garbage-collected timestamps must be physically gone from the log.
	for tag := Tag(1); tag <= 64; tag++ {
		for w := 0; w < diffNodes; w++ {
			ts := Timestamp{Tag: tag, Writer: w}
			lp, lok := d.log.Get(ts)
			if d.pruned[ts] {
				if lok {
					t.Fatalf("Get(%v): pruned value still physically present", ts)
				}
				continue
			}
			mp, mok := d.sets[0].Get(ts)
			if lok != mok || !bytes.Equal(lp, mp) {
				t.Fatalf("Get(%v): log (%q,%v), map (%q,%v)", ts, lp, lok, mp, mok)
			}
		}
	}
}

// diffWindow is the window capacity the fuzz target and the hand-built
// streams run at; the seeds below are laid out against it.
const diffWindow = 8

// diffRun replays a whole byte stream at window capacity window, re-reading
// the published views after every step and checking equivalence
// periodically and at the end.
func diffRun(t *testing.T, data []byte, window int) *diffState {
	t.Helper()
	shrinkWindow(t, window)
	d := newDiffState()
	steps := 0
	for i := 0; ; steps++ {
		n := d.step(data, i)
		if n == 0 {
			break
		}
		i += n
		d.verifyPublished()
		if steps%32 == 31 {
			d.check(t)
		}
	}
	d.check(t)
	d.verifyPublished()
	return d
}

func TestValueLogDifferential(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 64+rng.Intn(2048))
		rng.Read(data)
		window := []int{2, diffWindow, 32, windowCap}[seed%4]
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) { diffRun(t, data, window) })
	}
}

// Stream encodings of the harness's operations.
func diffAdd(src, tag, w byte) []byte { return []byte{0, src, tag - 1, w} }
func diffFreeze(tag byte) []byte      { return []byte{6, tag - 1, 0, 0} }
func diffCompose(tag byte) []byte     { return []byte{7, tag - 1, 0, 0} }

var diffPrune = []byte{5, 0, 0, 0}

// stragglerStream builds twenty values at even tags 2..40, freezes them all
// — at diffWindow that seals positions 0..15 (tags ≤ 32) and leaves
// positions 16..19 (tags 34..40) frozen in the window — cuts a view, lands
// one straggler at tag, and composes again.
func stragglerStream(tag byte) []byte {
	var stream []byte
	for t := byte(2); t <= 40; t += 2 {
		stream = append(stream, diffAdd(1, t, 1)...)
	}
	stream = append(stream, diffFreeze(40)...)
	stream = append(stream, diffCompose(64)...)
	stream = append(stream, diffAdd(2, tag, 2)...)
	return append(stream, diffCompose(64)...)
}

// The three places a straggler can land relative to the sealed boundary.
const (
	stragglerDepth0     = 39 // just under the frontier: the window's last frozen slot
	stragglerAtBoundary = 33 // position len(sealed): the window's first slot
	stragglerBelow      = 31 // inside the sealed prefix: the full-copy fallback
)

// TestStragglerStreamsLandWhereNamed pins the layout the fuzz seeds rely
// on: what each straggler copies says which piece it landed in.
func TestStragglerStreamsLandWhereNamed(t *testing.T) {
	for _, c := range []struct {
		tag    byte
		copied int64
		sealed int
	}{
		{stragglerDepth0, 4, 16},
		{stragglerAtBoundary, 4, 16},
		{stragglerBelow, 16, 17},
	} {
		d := diffRun(t, stragglerStream(c.tag), diffWindow)
		st := d.log.Stats()
		if st.COWInserts != 1 || st.COWCopied != c.copied || len(d.log.sealed) != c.sealed {
			t.Errorf("straggler at tag %d: COWInserts=%d COWCopied=%d len(sealed)=%d, want 1, %d, %d",
				c.tag, st.COWInserts, st.COWCopied, len(d.log.sealed), c.copied, c.sealed)
		}
	}
}

// TestValueLogDifferentialAdversarial replays hand-picked streams that
// exercise the structurally interesting paths: inserts below the frontier
// (copy-on-write, in the window and below the sealed boundary), prefix
// demotions, and straggler absorption.
func TestValueLogDifferentialAdversarial(t *testing.T) {
	var stream []byte
	// Build a prefix, freeze it, then land older values under it.
	for tag := byte(10); tag <= 30; tag += 2 {
		stream = append(stream, diffAdd(1, tag, 1)...)
	}
	stream = append(stream, diffFreeze(30)...)
	for tag := byte(9); tag >= 3; tag -= 2 {
		stream = append(stream, diffAdd(2, tag, 2)...) // COW inserts
	}
	stream = append(stream, diffCompose(30)...)
	// Peer 1 receives the stragglers out of order, then the gap filler.
	stream = append(stream, diffAdd(1, 40, 3)...)
	stream = append(stream, diffAdd(1, 36, 4)...)
	stream = append(stream, diffAdd(1, 38, 0)...)
	stream = append(stream, diffFreeze(40)...)
	stream = append(stream, diffCompose(64)...)
	// Garbage-collect below the vouched frontier, keep writing above it,
	// freeze and prune again (cumulative pre-extract), then compose on the
	// pruned log.
	stream = append(stream, diffPrune...)
	stream = append(stream, diffAdd(3, 50, 2)...)
	stream = append(stream, diffAdd(3, 44, 1)...)
	stream = append(stream, diffAdd(1, 47, 0)...)
	stream = append(stream, diffFreeze(50)...)
	stream = append(stream, diffCompose(64)...)
	stream = append(stream, diffPrune...)
	stream = append(stream, diffAdd(2, 60, 4)...)
	stream = append(stream, diffCompose(64)...)
	for _, window := range []int{2, diffWindow, windowCap} {
		diffRun(t, stream, window)
	}
}

// FuzzValueSetEquivalence feeds arbitrary operation streams through both
// engines; any query disagreement fails the run. This is the CI-bounded
// guard that the history-independent log stays observationally equal to
// the reference map implementation.
func FuzzValueSetEquivalence(f *testing.F) {
	f.Add([]byte{0, 1, 5, 2, 6, 10, 0, 0, 0, 2, 3, 1, 7, 63, 0, 0})
	// Truncation events: build, freeze, prune (5), keep writing, re-prune.
	f.Add([]byte{0, 1, 9, 1, 0, 2, 14, 2, 6, 20, 0, 0, 5, 0, 0, 0, 0, 3, 30, 3, 6, 40, 0, 0, 5, 0, 0, 0, 7, 63, 0, 0})
	for _, tag := range []byte{stragglerDepth0, stragglerAtBoundary, stragglerBelow} {
		f.Add(stragglerStream(tag))
	}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 4; i++ {
		data := make([]byte, 128)
		rng.Read(data)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<14 {
			t.Skip("bounded input")
		}
		diffRun(t, data, diffWindow)
	})
}
