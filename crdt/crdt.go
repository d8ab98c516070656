// Package crdt implements linearizable state-based CRDTs on top of a
// snapshot object — one of the paper's motivating applications (Section I:
// "linearizable conflict-free replicated data types").
//
// Each node's CRDT contribution lives in its own segment of the snapshot
// object (obj is an mpsnap.Object): updates rewrite the caller's segment
// (single-writer), reads SCAN all segments and join them. Run over an
// atomic snapshot (EQ-ASO), reads and writes are linearizable; over an SSO
// they are sequentially consistent (a classic consistency/latency trade:
// SSO reads are local).
//
// All methods must be called from the owning node's client thread (at most
// one operation at a time), matching the paper's sequential-node model.
package crdt

import (
	"sort"

	"mpsnap/internal/segment"
	"mpsnap/internal/wire"
)

var strs = segment.List(segment.String, 1)

// GCounter is a grow-only counter: each segment holds the owner's
// monotonically non-decreasing contribution; the value is their sum.
type GCounter struct{ seg *segment.Own[uint64] }

// NewGCounter binds a counter to the node's snapshot object.
func NewGCounter(obj segment.Object) *GCounter {
	return &GCounter{segment.NewOwn(obj, -1, "crdt", segment.Uvarint)}
}

// Add increments this node's contribution by delta.
func (c *GCounter) Add(delta uint64) error { return c.seg.Put(c.seg.Last() + delta) }

// Value reads the counter (one SCAN).
func (c *GCounter) Value() (uint64, error) {
	segs, err := c.seg.Scan()
	if err != nil {
		return 0, err
	}
	var total uint64
	for _, v := range segs {
		if v != nil {
			total += *v
		}
	}
	return total, nil
}

// pnState is a PN-counter segment.
type pnState struct{ P, N uint64 }

var pnCodec = segment.Codec[pnState]{
	Put: func(b *wire.Buffer, v pnState) { b.PutUvarint(v.P); b.PutUvarint(v.N) },
	Get: func(d *wire.Decoder) pnState { return pnState{P: d.Uvarint(), N: d.Uvarint()} },
}

// PNCounter supports increments and decrements (a pair of G-Counters).
type PNCounter struct{ seg *segment.Own[pnState] }

// NewPNCounter binds a counter to the node's snapshot object.
func NewPNCounter(obj segment.Object) *PNCounter {
	return &PNCounter{segment.NewOwn(obj, -1, "crdt", pnCodec)}
}

// Add adjusts this node's contribution by delta (which may be negative).
func (c *PNCounter) Add(delta int64) error {
	v := c.seg.Last()
	if delta >= 0 {
		v.P += uint64(delta)
	} else {
		v.N += uint64(-delta)
	}
	return c.seg.Put(v)
}

// Value reads the counter (one SCAN).
func (c *PNCounter) Value() (int64, error) {
	segs, err := c.seg.Scan()
	if err != nil {
		return 0, err
	}
	var total int64
	for _, v := range segs {
		if v != nil {
			total += int64(v.P) - int64(v.N)
		}
	}
	return total, nil
}

// tpState is a 2P-set segment: the owner's added and removed elements.
type tpState struct {
	Added   []string
	Removed []string
}

var tpCodec = segment.Codec[tpState]{
	Put: func(b *wire.Buffer, st tpState) { strs.Put(b, st.Added); strs.Put(b, st.Removed) },
	Get: func(d *wire.Decoder) tpState { return tpState{Added: strs.Get(d), Removed: strs.Get(d)} },
}

// TwoPhaseSet is a set with add and remove, where a removed element can
// never be re-added (2P-set semantics). Each segment holds the owner's
// add- and tombstone-sets.
type TwoPhaseSet struct {
	seg     *segment.Own[tpState]
	added   map[string]bool
	removed map[string]bool
}

// NewTwoPhaseSet binds a set to the node's snapshot object.
func NewTwoPhaseSet(obj segment.Object) *TwoPhaseSet {
	return &TwoPhaseSet{
		seg:     segment.NewOwn(obj, -1, "crdt", tpCodec),
		added:   make(map[string]bool),
		removed: make(map[string]bool),
	}
}

func (s *TwoPhaseSet) push() error {
	return s.seg.Put(tpState{Added: keys(s.added), Removed: keys(s.removed)})
}

// Add inserts e into the node's add-set.
func (s *TwoPhaseSet) Add(e string) error {
	s.added[e] = true
	return s.push()
}

// Remove tombstones e (any node may remove any element).
func (s *TwoPhaseSet) Remove(e string) error {
	s.removed[e] = true
	return s.push()
}

// Contains reads membership: added by someone and removed by no one.
func (s *TwoPhaseSet) Contains(e string) (bool, error) {
	elems, err := s.Elements()
	if err != nil {
		return false, err
	}
	for _, x := range elems {
		if x == e {
			return true, nil
		}
	}
	return false, nil
}

// Elements reads the set (one SCAN): union of add-sets minus union of
// tombstones, sorted.
func (s *TwoPhaseSet) Elements() ([]string, error) {
	segs, err := s.seg.Scan()
	if err != nil {
		return nil, err
	}
	added := make(map[string]bool)
	removed := make(map[string]bool)
	for _, st := range segs {
		if st == nil {
			continue
		}
		for _, e := range st.Added {
			added[e] = true
		}
		for _, e := range st.Removed {
			removed[e] = true
		}
	}
	var out []string
	for e := range added {
		if !removed[e] {
			out = append(out, e)
		}
	}
	sort.Strings(out)
	return out, nil
}

func keys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
