package crdt

import (
	"sort"

	"mpsnap/internal/segment"
	"mpsnap/internal/wire"
)

// ORTag uniquely identifies one Add operation (observed-remove sets tag
// every insertion so removals only affect observed insertions).
type ORTag struct {
	Node int
	Ctr  int
}

// orState is an OR-set segment: the owner's tagged insertions and the
// tags it has removed (of any node's insertions).
type orState struct {
	Adds    map[string][]ORTag
	Removes map[ORTag]bool
}

var tagList = segment.List(segment.Codec[ORTag]{
	Put: func(b *wire.Buffer, tag ORTag) { b.PutInt(tag.Node); b.PutInt(tag.Ctr) },
	Get: func(d *wire.Decoder) ORTag { return ORTag{Node: d.Int(), Ctr: d.Int()} },
}, 2)

// orCodec serializes an OR-set segment deterministically: Adds entries in
// sorted element order, Removes sorted by (Node, Ctr).
var orCodec = segment.Codec[orState]{
	Put: func(b *wire.Buffer, st orState) {
		elems := make([]string, 0, len(st.Adds))
		for e := range st.Adds {
			elems = append(elems, e)
		}
		sort.Strings(elems)
		b.PutUvarint(uint64(len(elems)))
		for _, e := range elems {
			b.PutString(e)
			tagList.Put(b, st.Adds[e])
		}
		removes := make([]ORTag, 0, len(st.Removes))
		for tag := range st.Removes {
			removes = append(removes, tag)
		}
		sort.Slice(removes, func(i, j int) bool {
			if removes[i].Node != removes[j].Node {
				return removes[i].Node < removes[j].Node
			}
			return removes[i].Ctr < removes[j].Ctr
		})
		tagList.Put(b, removes)
	},
	Get: func(d *wire.Decoder) orState {
		st := orState{Adds: make(map[string][]ORTag), Removes: make(map[ORTag]bool)}
		for i, n := 0, d.Count(2); i < n && d.Err() == nil; i++ {
			e := d.String()
			st.Adds[e] = tagList.Get(d)
		}
		for _, tag := range tagList.Get(d) {
			st.Removes[tag] = true
		}
		return st
	},
}

// ORSet is an observed-remove set with add-wins semantics: removing an
// element cancels only the insertions the remover has observed, so a
// concurrent re-Add survives. Each segment carries the owner's insertions
// and removals.
type ORSet struct {
	seg *segment.Own[orState]
	id  int
	ctr int
	st  orState
}

// NewORSet binds an OR-set to the node's snapshot object; id must be the
// node's ID.
func NewORSet(obj segment.Object, id int) *ORSet {
	return &ORSet{
		seg: segment.NewOwn(obj, id, "crdt", orCodec),
		id:  id,
		st:  orState{Adds: make(map[string][]ORTag), Removes: make(map[ORTag]bool)},
	}
}

// Add inserts e with a fresh tag (one UPDATE).
func (s *ORSet) Add(e string) error {
	s.ctr++
	s.st.Adds[e] = append(s.st.Adds[e], ORTag{Node: s.id, Ctr: s.ctr})
	return s.seg.Put(s.st)
}

// Remove deletes e by tombstoning every currently observable insertion of
// it (one SCAN + one UPDATE). A concurrent Add with an unobserved tag
// survives — add-wins.
func (s *ORSet) Remove(e string) error {
	visible, err := s.collect()
	if err != nil {
		return err
	}
	for _, tag := range visible[e] {
		s.st.Removes[tag] = true
	}
	return s.seg.Put(s.st)
}

// collect scans and returns, per element, the insertion tags not yet
// removed by anyone.
func (s *ORSet) collect() (map[string][]ORTag, error) {
	segs, err := s.seg.Scan()
	if err != nil {
		return nil, err
	}
	removed := make(map[ORTag]bool)
	for _, st := range segs {
		if st != nil {
			for tag := range st.Removes {
				removed[tag] = true
			}
		}
	}
	visible := make(map[string][]ORTag)
	for _, st := range segs {
		if st == nil {
			continue
		}
		for e, ts := range st.Adds {
			for _, tag := range ts {
				if !removed[tag] {
					visible[e] = append(visible[e], tag)
				}
			}
		}
	}
	return visible, nil
}

// Elements reads the set (one SCAN), sorted.
func (s *ORSet) Elements() ([]string, error) {
	visible, err := s.collect()
	if err != nil {
		return nil, err
	}
	var out []string
	for e, tags := range visible {
		if len(tags) > 0 {
			out = append(out, e)
		}
	}
	sort.Strings(out)
	return out, nil
}

// Contains reads membership of e (one SCAN).
func (s *ORSet) Contains(e string) (bool, error) {
	visible, err := s.collect()
	if err != nil {
		return false, err
	}
	return len(visible[e]) > 0, nil
}
