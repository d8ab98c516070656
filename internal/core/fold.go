package core

// Fold defines a writer's segment as the fold of its values in timestamp
// order. The paper's snapshot keeps only each writer's latest value, and that
// is the default (a nil Fold): the segment is the latest payload. A Fold lets
// a writer publish increments instead, each value a delta over the ones
// before it.
//
// Folding is sound because every view the protocol extracts from is closed
// under each writer's prefix: whatever view holds a writer's value also holds
// every earlier value of that writer, or a summary of them (the pruned
// prefix). A fold must keep its contract:
//
//   - a folded segment is itself a valid delta: the views that flatten a
//     pruned prefix (Standalone) stand one in for the values it replaces;
//   - folding a segment over any prefix of its own chain returns it, so such
//     a stand-in folds correctly over whatever part of the chain the
//     receiver already holds.
//
// A Fold's dynamic type must be comparable: ValueLog.SetFold accepts the
// fold a log already has by ==.
type Fold interface {
	// Fold returns the segment seg becomes once deltas are folded in, in
	// order. seg is nil for a writer with no value yet; deltas is never
	// empty. Neither argument may be modified or retained.
	Fold(seg []byte, deltas [][]byte) []byte
}

// chains is a per-writer fold kept incrementally over a stream of values
// that arrives in timestamp order (a log's frozen prefix, or its pruned
// prefix), and republished as an immutable baseExtract when it changes.
//
// Under a Fold a writer's segment is kept as a materialised base (pays) plus
// the payloads folded since (tails). A new value only appends to the tail;
// the base is re-materialised when the tail's bytes outgrow it, or taken
// from a reader that folded it, so folding costs amortised O(delta bytes),
// and publishing copies slice headers only: O(n).
type chains struct {
	fold  Fold
	tags  []Tag
	pays  [][]byte
	tails [][][]byte // under a Fold, per writer
	bytes []int      // per writer, the payload bytes in tails
	pub   *baseExtract
	stale bool // differs from pub
}

func newChains(n int) chains {
	c := chains{tags: make([]Tag, n), pays: make([][]byte, n)}
	for i := range c.tags {
		c.tags[i] = -1
	}
	return c
}

// setFold installs f on chains that have folded nothing yet.
func (c *chains) setFold(f Fold) {
	c.fold = f
	c.tails = make([][][]byte, len(c.tags))
	c.bytes = make([]int, len(c.tags))
}

// note folds v in; v's writer must be in range. A value at or below the
// writer's folded tag is ignored.
func (c *chains) note(v Value) {
	w := v.TS.Writer
	if v.TS.Tag <= c.tags[w] {
		return
	}
	c.tags[w] = v.TS.Tag
	c.stale = true
	if c.fold == nil {
		c.pays[w] = v.Payload
		return
	}
	// A published snapshot caps its tail at its own length, so appending
	// here never changes it; a re-materialised tail starts a fresh array.
	c.tails[w] = append(c.tails[w], v.Payload)
	c.bytes[w] += len(v.Payload)
	if c.bytes[w] > len(c.pays[w]) {
		c.pays[w] = c.fold.Fold(c.pays[w], c.tails[w])
		c.tails[w], c.bytes[w] = nil, 0
	}
}

// publish returns an immutable snapshot of the chains. Under a Fold, a
// segment some reader of the previous snapshot folded becomes the base of
// its writer's chain first, so the next reader folds only what came after.
func (c *chains) publish() *baseExtract {
	if !c.stale && c.pub != nil {
		return c.pub
	}
	if c.pub != nil && c.pub.tails != nil {
		c.adopt(c.pub)
	}
	p := &baseExtract{
		tags: append([]Tag(nil), c.tags...),
		pays: append([][]byte(nil), c.pays...),
	}
	if c.fold != nil {
		p.tails = make([]tail, len(c.tails))
		for w, t := range c.tails {
			p.tails[w].vals = t[:len(t):len(t)]
		}
	}
	c.pub, c.stale = p, false
	return p
}

// adopt takes the segments readers folded from snapshot old as the bases of
// the chains not re-materialised since: such a chain's tail still starts
// with old's, on the same array.
func (c *chains) adopt(old *baseExtract) {
	for w := range old.tails {
		t, seg := old.tails[w].vals, old.tails[w].seg.Load()
		cur := c.tails[w]
		if seg == nil || len(cur) < len(t) || &cur[0] != &t[0] || !sameBytes(c.pays[w], old.pays[w]) {
			continue
		}
		for _, p := range t {
			c.bytes[w] -= len(p)
		}
		c.pays[w], c.tails[w] = *seg, cur[len(t):]
	}
}

// sameBytes reports whether a and b are the same slice of the same array.
func sameBytes(a, b []byte) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// segment returns writer w's folded segment: its base with any unfolded
// tail applied, folded at most once per snapshot (the result is kept for
// later readers, and for the chains to adopt at their next publish).
func (e *baseExtract) segment(f Fold, w int) []byte {
	if e.tails == nil || len(e.tails[w].vals) == 0 {
		return e.pays[w]
	}
	t := &e.tails[w]
	if seg := t.seg.Load(); seg != nil {
		return *seg
	}
	seg := f.Fold(e.pays[w], t.vals)
	t.seg.Store(&seg)
	return seg
}
