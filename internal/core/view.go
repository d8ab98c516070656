package core

import (
	"sort"
	"sync/atomic"
)

// View is an immutable set of values, sorted by timestamp. Views are what
// good lattice operations return and what SCANs extract their vectors from
// (Definition 9).
//
// A View is stored as three sorted segments, each strictly above the one
// before: base and mid alias the two frozen pieces of a node's value log
// (its sealed prefix and the frozen part of its recent window — never
// mutated in place once handed out; the log copies on write for
// below-frontier inserts), and tail is a small owned slice. Views cut
// directly from a frozen log prefix are zero-copy: base and mid alias the
// log's backing arrays and tail is empty. Callers must treat all segments
// as read-only.
type View struct {
	base []Value
	mid  []Value
	tail []Value
	// ext, when set, caches the per-writer extract over base and mid, so
	// Extract only walks tail. It is published by the owning ValueLog
	// together with the frozen prefix and is immutable.
	ext *baseExtract
	// pre, when set, summarizes a garbage-collected log prefix that the
	// view logically includes but no longer holds physically: for each
	// writer, the extract of its pruned values. Every pruned timestamp sorts
	// below every value in the segments. pruned counts the values the
	// summary stands for (the view's logical length is pruned + Len()).
	pre    *baseExtract
	pruned int
	// fold is how Extract combines a writer's values (nil: the latest wins).
	fold Fold
}

// baseExtract is the cached extract of a log prefix: for each writer, the
// largest tag (−1 = none) and its segment — the payload under the default
// fold; under a Fold, a materialised base plus the payloads still to fold
// over it (tails, nil under the default fold).
type baseExtract struct {
	tags  []Tag
	pays  [][]byte
	tails []tail
}

// tail is a writer's payloads still to fold in a published extract, and the
// folded segment once a reader folded them (the one part of a published
// extract written after publication).
type tail struct {
	vals [][]byte
	seg  atomic.Pointer[[]byte]
}

// ViewOf builds a view from values already sorted by timestamp. The slice
// is retained, not copied.
func ViewOf(vals ...Value) View { return View{tail: vals} }

// WithFold returns v extracting under f. Views cut from a log carry the
// log's fold already; a view that arrived some other way (a full view off
// the wire) is given it by the node that extracts from it.
func (v View) WithFold(f Fold) View {
	v.fold = f
	return v
}

// Len returns the number of values the view holds physically. A view cut
// from a pruned log logically also includes the pruned prefix (see
// LogicalLen); Len, At and Each see only the physical values, the subset
// relations the logical ones.
func (v View) Len() int { return len(v.base) + len(v.mid) + len(v.tail) }

// segs returns the segments in timestamp order.
func (v View) segs() [3][]Value { return [3][]Value{v.base, v.mid, v.tail} }

// LogicalLen returns the number of values the view stands for, counting
// the garbage-collected prefix it summarizes. Two good views from logs
// with different prune points compare correctly by logical length where
// physical Len would mislead.
func (v View) LogicalLen() int { return v.pruned + v.Len() }

// Pruned returns the number of summarized (physically absent) values.
func (v View) Pruned() int { return v.pruned }

// At returns the i-th value in timestamp order.
func (v View) At(i int) Value {
	if i < len(v.base) {
		return v.base[i]
	}
	i -= len(v.base)
	if i < len(v.mid) {
		return v.mid[i]
	}
	return v.tail[i-len(v.mid)]
}

// Values returns the view's values as one sorted slice. When the view is a
// single segment the underlying array is returned without copying; treat
// the result as read-only.
func (v View) Values() []Value {
	for _, seg := range v.segs() {
		if len(seg) == v.Len() {
			return seg
		}
	}
	out := make([]Value, 0, v.Len())
	for _, seg := range v.segs() {
		out = append(out, seg...)
	}
	return out
}

// Each calls fn for every value in timestamp order.
func (v View) Each(fn func(Value)) {
	for _, seg := range v.segs() {
		for i := range seg {
			fn(seg[i])
		}
	}
}

// Timestamps returns the view's timestamps, in order.
func (v View) Timestamps() []Timestamp {
	out := make([]Timestamp, 0, v.Len())
	v.Each(func(val Value) { out = append(out, val.TS) })
	return out
}

// searchSeg returns the position of the first value in seg whose timestamp
// is not less than ts.
func searchSeg(seg []Value, ts Timestamp) int {
	return sort.Search(len(seg), func(i int) bool { return !seg[i].TS.Less(ts) })
}

// Contains reports whether the view holds a value with timestamp ts.
func (v View) Contains(ts Timestamp) bool {
	for _, seg := range v.segs() {
		if n := len(seg); n > 0 && !seg[n-1].TS.Less(ts) {
			i := searchSeg(seg, ts)
			return seg[i].TS == ts
		}
	}
	return false
}

// Covers reports whether the view holds ts physically or its garbage-
// collected prefix held it. The pruned prefix is a timestamp-order prefix
// of the log, so for a value that exists, a latest-pruned tag for its
// writer at or above ts.Tag proves ts was inside the prefix (a log admits
// each writer's values only after their predecessor — eqaso holds back
// one that arrives early — so every earlier tag of that writer entered the
// log and sorted below). Callers must only pass timestamps of values
// actually written (the SSO passes its own just-written timestamps).
func (v View) Covers(ts Timestamp) bool {
	if v.Contains(ts) {
		return true
	}
	return v.pre != nil && ts.Writer >= 0 && ts.Writer < len(v.pre.tags) &&
		v.pre.tags[ts.Writer] >= ts.Tag
}

// sameBacking reports whether a and b alias the same backing array start,
// i.e. they are prefixes of the same frozen log piece and therefore agree
// on their common prefix.
func sameBacking(a, b []Value) bool {
	return len(a) > 0 && len(b) > 0 && &a[0] == &b[0]
}

// SubsetOf reports v ⊆ o (by timestamp), counting the values each view
// stands for: views cut from logs with different prune points compare as
// the sets they represent. v's pruned prefix is inside o when o covers each
// writer's latest pruned tag in v (views are closed under each writer's
// prefix, see Covers); a physical value of v that sorts below o's first
// one must lie in o's pruned prefix. When both views cut their frozen
// segments from the same log arrays the shared prefix is skipped without
// comparing, making containment checks between sibling views O(tail).
func (v View) SubsetOf(o View) bool {
	if v.LogicalLen() > o.LogicalLen() {
		return false
	}
	if v.pruned > 0 && v.pre != nil {
		for w, tag := range v.pre.tags {
			if tag >= 0 && !o.Covers(Timestamp{Tag: tag, Writer: w}) {
				return false
			}
		}
	}
	start := 0
	if sameBacking(v.base, o.base) {
		start = min(len(v.base), len(o.base))
	}
	if len(v.base) == len(o.base) && start == len(v.base) && sameBacking(v.mid, o.mid) {
		start += min(len(v.mid), len(o.mid))
	}
	i := start
	for k := start; k < v.Len(); k++ {
		ts := v.At(k).TS
		if o.pruned > 0 && (o.Len() == 0 || ts.Less(o.At(0).TS)) {
			if !o.Covers(ts) {
				return false
			}
			continue
		}
		for i < o.Len() && o.At(i).TS.Less(ts) {
			i++
		}
		if i >= o.Len() || o.At(i).TS != ts {
			return false
		}
		i++
	}
	return true
}

// ComparableWith reports v ⊆ o or o ⊆ v — the comparability at the heart
// of Lemma 1 and Lemma 2.
func (v View) ComparableWith(o View) bool {
	return v.SubsetOf(o) || o.SubsetOf(v)
}

// Equal reports that v and o stand for exactly the same timestamps.
func (v View) Equal(o View) bool {
	return v.LogicalLen() == o.LogicalLen() && v.SubsetOf(o)
}

// Extract implements the extract(S) procedure (lines 31–34 of Algorithm 1):
// for each node j, j's segment in the view — by default the payload with
// the largest tag among j's values, under a Fold the fold of all of them;
// nil marks ⊥ (no value). When the view carries a cached extract of its
// frozen segments (views cut from a frozen log prefix do), only the tail is
// walked, so SCAN extraction is O(n + |tail|) instead of O(H); under a Fold,
// each segment with values still to fold is re-encoded once.
func (v View) Extract(n int) [][]byte {
	snap := make([][]byte, n)
	best := make([]Tag, n)
	for i := range best {
		best[i] = -1
	}
	var base *baseExtract
	start := 0
	switch {
	case v.ext != nil && len(v.ext.tags) <= n:
		// The base extract already folds in any pruned prefix (the master
		// extract is cumulative and never truncated), so pre is subsumed.
		base, start = v.ext, len(v.base)+len(v.mid)
	case v.pre != nil && len(v.pre.tags) <= n:
		base = v.pre
	}
	if base != nil {
		copy(best, base.tags)
		for w := range base.pays {
			snap[w] = base.segment(v.fold, w)
		}
	}
	var more [][][]byte // under a Fold: per writer, its payloads above the base
	for k := start; k < v.Len(); k++ {
		val := v.At(k)
		w := val.TS.Writer
		if w < 0 || w >= n || val.TS.Tag <= best[w] {
			continue // out-of-range writers are ignored (defensive)
		}
		best[w] = val.TS.Tag
		if v.fold == nil {
			snap[w] = val.Payload
			continue
		}
		if more == nil {
			more = make([][][]byte, n)
		}
		more[w] = append(more[w], val.Payload)
	}
	for w, m := range more {
		if len(m) > 0 {
			snap[w] = v.fold.Fold(snap[w], m)
		}
	}
	return snap
}

// Standalone flattens the view into one that depends on no pruned-prefix
// summary: each writer's pruned values are materialized as one real value
// at its latest pruned timestamp, ahead of the retained ones (every pruned
// timestamp sorts below every retained one, so the result stays sorted) —
// under a Fold, that value's payload is the fold of the pruned values,
// itself a valid delta. The materialized view approximates the original —
// intermediate pruned values are gone — but extracts identically, which is
// what wire-encoded full views and rejoin replies need.
func (v View) Standalone() View {
	if v.pre == nil || v.pruned == 0 {
		return v
	}
	var pv []Value
	for w, tag := range v.pre.tags {
		if tag >= 0 {
			pv = append(pv, Value{TS: Timestamp{Tag: tag, Writer: w}, Payload: v.pre.segment(v.fold, w)})
		}
	}
	sort.Slice(pv, func(i, j int) bool { return pv[i].TS.Less(pv[j].TS) })
	out := make([]Value, 0, len(pv)+v.Len())
	out = append(out, pv...)
	v.Each(func(val Value) { out = append(out, val) })
	return ViewOf(out...).WithFold(v.fold)
}

func (v View) String() string {
	s := "{"
	first := true
	v.Each(func(val Value) {
		if !first {
			s += " "
		}
		first = false
		s += val.TS.String()
	})
	return s + "}"
}
