package core

import (
	"fmt"
	"slices"
	"sort"
)

// ValueLog is the history-independent replacement for an array of per-peer
// ValueSets. One timestamp-sorted sequence holds each value the node knows
// exactly once; per-peer membership (V[j] in the paper) is tracked as
// a prefix cursor plus a small straggler set, which is sound because the
// algorithms maintain V[j] ⊆ V[self] (every value received from any j is
// also added to V[self], line 40 of Algorithm 1).
//
// The log additionally maintains a stable frontier: when the node performs
// a good lattice operation at tag r — so the prefix with tags ≤ r is known
// good at n−f nodes — AdvanceFrontier(r) freezes that prefix. The frozen
// region is immutable in place: views returned by ViewLE/AllView alias it
// zero-copy, and a straggler insert below the frontier copies on write so
// already-published views never change.
//
// Stragglers are not rare — measured at 1.7% of all inserts on a 3-node
// TCP mesh — but they are shallow: every one landed within 32 positions of
// the end of the log there, within 64 on a 7-node simulated cluster with
// crashes. The sequence is therefore stored as two pieces. The sealed
// prefix holds frozen values old enough that no straggler reaches them: it
// only ever grows by amortized append, which is safe under aliasing because
// views cap their slices. The recent window holds the newest frozen values
// (between windowCap/2 and windowCap of them) followed by the unfrozen
// tail; frozen values migrate window → sealed in blocks as the frontier
// advances. A below-frontier insert copies only the window — O(windowCap +
// unfrozen tail), independent of H. One that lands below the sealed
// boundary still copies the whole sealed prefix (with growth headroom, so
// the next append does not copy it again): the correct fallback, which the
// measured depths never reach.
//
// A digest prefix-sum array summarizes every log prefix, so a frontier
// Checkpoint (count + order-independent digest) advertised by a peer can
// be vouched for in O(1); borrow replies then ship only the delta above
// the checkpoint instead of the full history.
//
// Per-operation costs with H total values and n nodes: Add is O(log H)
// amortized (appends dominate in tag order; a mid-tail insert memmoves
// only the unfrozen tail; a straggler allocates O(windowCap)), CountLE is
// O(log H), EQTracker.ResetFromLog is O(n log H), and ViewLE at or below the
// frontier is O(1).
// Garbage collection: once a checkpoint has been vouched by every node
// (each peer's NoteVouch recorded), PruneTo drops the value prefix below
// it. Counts stay absolute across pruning — off is the number of pruned
// values, and SelfLen/Len/CountLE/Frontier all report off + physical —
// while digsum is re-based so digsum[i] remains the absolute digest of
// pruned ∪ the first i retained values exactly (the digests are
// order-independent sums).
// The pruned prefix survives as a per-writer extract (pre) attached to
// views, so SCAN extraction still sees every writer's segment.
type ValueLog struct {
	n, self int
	// The retained values, sorted by timestamp, no duplicates: position p is
	// sealed[p] below len(sealed) and win[p-len(sealed)] above.
	sealed   []Value  // frozen and out of straggler reach: append-only
	win      []Value  // the newest frozen values, then the unfrozen tail
	digsum   []uint64 // digsum[i] = digest of pruned prefix ∪ positions [0,i); len = size()+1
	frozen   int      // positions [0,frozen) are immutable in place; ≥ len(sealed)
	frontier Tag      // largest tag passed to AdvanceFrontier
	peers    []peerSet

	off       int       // values pruned below the globally-vouched checkpoint
	prunedTag Tag       // tag of the last checkpoint pruned to
	prunedTS  Timestamp // the largest timestamp pruned

	// fold is how a writer's values combine into its segment (nil: the
	// latest wins); every view cut from the log carries it.
	fold Fold
	// Per-writer extract over the pruned prefix (cumulative across prunes),
	// published (pre.pub) and attached to views so extracts stay exact.
	pre chains
	// Master per-writer extract over the frozen prefix, republished as an
	// immutable snapshot (ext.pub) at each freeze so views can cache it.
	ext   chains
	extOK bool // false once a writer outside [0,n) is seen
	// last[w] is the largest tag of writer w that V[self] holds, the pruned
	// prefix included (0: none).
	last []Tag

	stats LogStats
}

// windowCap is the most frozen values the recent window holds before the
// oldest are sealed; half of them stay, so a straggler up to windowCap/2
// positions below the frozen boundary still costs only a window copy (the
// measured depth is ≤ 64 from the end of the log). A variable only so the
// tests can shrink it to cross the seal boundary with short streams.
var windowCap = 256

// peerSet is node j's membership in the shared log: j holds every value at
// positions [0,prefix) plus the timestamps in strag. Invariant: every
// straggler's position is ≥ prefix (so all straggler timestamps are greater
// than all prefix timestamps, and strag is sorted).
type peerSet struct {
	prefix int
	strag  []Timestamp
}

// Checkpoint summarizes a log prefix: every held value with tag ≤ Tag, how
// many there are, and an order-independent digest over them. Two nodes
// whose prefixes carry equal Count and Digest hold the same value sequence
// below that point (up to checksum collisions; the digest is an integrity
// check for the crash model, not cryptographic).
type Checkpoint struct {
	Tag    Tag
	Count  int
	Digest uint64
}

// LogStats counts structural events, exposed for benchmarks and tests.
type LogStats struct {
	Appends     int64 // new value appended at the end of the log
	TailInserts int64 // new value memmoved into the unfrozen tail
	COWInserts  int64 // new value below the frontier forced a reallocation
	COWCopied   int64 // values those reallocations copied
	Demotions   int64 // peer prefix values demoted to stragglers
	Freezes     int64 // AdvanceFrontier calls that grew the frozen prefix
	Prunes      int64 // PruneTo calls that dropped a prefix
	PrunedVals  int64 // total values garbage-collected by PruneTo
}

// NewValueLog returns an empty log for node self of n.
func NewValueLog(n, self int) *ValueLog {
	return &ValueLog{
		n:      n,
		self:   self,
		digsum: make([]uint64, 1, 16),
		peers:  make([]peerSet, n),
		pre:    newChains(n),
		ext:    newChains(n),
		extOK:  true,
		last:   make([]Tag, n),
	}
}

// SetFold makes f the fold of every writer's segment. It must be called
// before the log holds a value, unless f is the fold the log already has.
func (l *ValueLog) SetFold(f Fold) error {
	if f == l.fold {
		return nil
	}
	if l.SelfLen() > 0 {
		return fmt.Errorf("core: a value log holding %d values cannot change its fold", l.SelfLen())
	}
	l.fold = f
	l.pre.setFold(f)
	l.ext.setFold(f)
	return nil
}

// Fold returns the log's fold (nil: the latest value wins).
func (l *ValueLog) Fold() Fold { return l.fold }

// N returns the cluster size the log was built for.
func (l *ValueLog) N() int { return l.n }

// LastTag returns the largest tag of writer w that V[self] holds, counting
// the pruned prefix (0 when none, or w is out of range). A node that admits
// each writer's values in order holds every earlier value of w too.
func (l *ValueLog) LastTag(w int) Tag {
	if w < 0 || w >= l.n {
		return 0
	}
	return l.last[w]
}

// PrevTag returns the tag of writer ts.Writer's value just below ts that
// V[self] holds (0 when none), the pruned prefix included — so 0 for the
// stand-in a Standalone view puts at the latest pruned tag. It walks back
// from ts to the writer's previous value: for re-sending a stretch of the
// log, not for the hot path.
func (l *ValueLog) PrevTag(ts Timestamp) Tag {
	p, _ := l.locate(ts)
	for p--; p >= 0; p-- {
		if v := l.at(p); v.TS.Writer == ts.Writer {
			return v.TS.Tag
		}
	}
	if w := ts.Writer; w >= 0 && w < l.n && l.pre.tags[w] >= 0 && l.pre.tags[w] < ts.Tag {
		return l.pre.tags[w]
	}
	return 0
}

// Stats returns the structural counters.
func (l *ValueLog) Stats() LogStats { return l.stats }

// size returns the number of values held physically.
func (l *ValueLog) size() int { return len(l.sealed) + len(l.win) }

// at returns the value at position p.
func (l *ValueLog) at(p int) Value {
	if p < len(l.sealed) {
		return l.sealed[p]
	}
	return l.win[p-len(l.sealed)]
}

// upperBound returns the number of values with tag ≤ r. Like locate it
// searches one piece: the window when the answer lies past its first value
// (queries cluster at the end of the log), else the sealed prefix.
func (l *ValueLog) upperBound(r Tag) int {
	seg, off := l.sealed, 0
	if len(l.win) > 0 && l.win[0].TS.Tag <= r {
		seg, off = l.win, len(l.sealed)
	}
	return off + sort.Search(len(seg), func(i int) bool { return seg[i].TS.Tag > r })
}

// locate returns the insertion position for ts and whether it is present.
func (l *ValueLog) locate(ts Timestamp) (int, bool) {
	seg, off := l.sealed, 0
	if len(l.win) > 0 && !ts.Less(l.win[0].TS) {
		seg, off = l.win, len(l.sealed)
	}
	p := searchSeg(seg, ts)
	return off + p, p < len(seg) && seg[p].TS == ts
}

// Has reports whether the node holds a value with timestamp ts.
func (l *ValueLog) Has(ts Timestamp) bool {
	_, ok := l.locate(ts)
	return ok
}

// Get returns the payload stored under ts.
func (l *ValueLog) Get(ts Timestamp) ([]byte, bool) {
	p, ok := l.locate(ts)
	if !ok {
		return nil, false
	}
	return l.at(p).Payload, true
}

// SelfLen returns |V[self]|: the total number of values held, counting
// the pruned prefix.
func (l *ValueLog) SelfLen() int { return l.off + l.size() }

// RetainedLen returns the number of values held physically (after GC).
func (l *ValueLog) RetainedLen() int { return l.size() }

// PrunedCount returns how many values have been garbage-collected.
func (l *ValueLog) PrunedCount() int { return l.off }

// PrunedTag returns the frontier tag of the last prune (0 when none).
func (l *ValueLog) PrunedTag() Tag { return l.prunedTag }

// Len returns |V[j]|, counting the pruned prefix (a prune requires every
// peer's cursor to cover it).
func (l *ValueLog) Len(j int) int {
	if j == l.self {
		return l.SelfLen()
	}
	ps := &l.peers[j]
	return l.off + ps.prefix + len(ps.strag)
}

// CountLE returns |V[j]^{≤r}| in O(log H + log |strag|). Exact for
// r ≥ PrunedTag (every pruned value has tag ≤ PrunedTag, so the pruned
// prefix is entirely below any such bound); below the prune point the
// count degrades to the prune-inclusive upper bound, which no protocol
// query hits — operation tags only grow past vouched frontiers.
func (l *ValueLog) CountLE(j int, r Tag) int {
	ub := l.upperBound(r)
	if j == l.self {
		return l.off + ub
	}
	ps := &l.peers[j]
	c := ps.prefix
	if ub < c {
		c = ub
	}
	c += sort.Search(len(ps.strag), func(i int) bool { return ps.strag[i].Tag > r })
	return l.off + c
}

// Add records that value v was received from node j, inserting it into
// V[self] too (the containment invariant). It reports whether v was new to
// V[j] and new to V[self], matching ValueSet.Add semantics for EQTracker.
func (l *ValueLog) Add(j int, v Value) (newToJ, newToSelf bool) {
	p, present := l.locate(v.TS)
	if !present {
		if l.off > 0 && !l.prunedTS.Less(v.TS) {
			// At or below the last pruned value: one the pruned prefix
			// holds, forwarded again. Re-admitting it would double-count it
			// in the absolute counts and diverge the digests. No new value
			// sorts there: its writer vouched a prefix that starts with the
			// pruned one, and either held the value then — so it lies inside
			// that prefix — or wrote it later, tagged above the vouch. The
			// checkpoint's tag is no such bound: a node can freeze at a tag
			// above the values it holds while one tagged in between is still
			// on its way.
			return false, false
		}
		l.insert(p, v)
		newToSelf = true
	}
	if j == l.self {
		return newToSelf, newToSelf
	}
	ps := &l.peers[j]
	if p < ps.prefix {
		// insert() demotes any prefix spanning the insertion point first,
		// so p < prefix means the value pre-existed inside j's prefix.
		return false, newToSelf
	}
	if p == ps.prefix {
		ps.prefix++
		l.absorb(ps)
		return true, newToSelf
	}
	k := sort.Search(len(ps.strag), func(i int) bool { return !ps.strag[i].Less(v.TS) })
	if k < len(ps.strag) && ps.strag[k] == v.TS {
		return false, newToSelf
	}
	ps.strag = append(ps.strag, Timestamp{})
	copy(ps.strag[k+1:], ps.strag[k:])
	ps.strag[k] = v.TS
	return true, newToSelf
}

// AddSelf records the node's own value: Add(self, v).
func (l *ValueLog) AddSelf(v Value) bool {
	n, _ := l.Add(l.self, v)
	return n
}

// absorb advances a peer prefix over stragglers that have become
// contiguous with it.
func (l *ValueLog) absorb(ps *peerSet) {
	for len(ps.strag) > 0 && ps.prefix < l.size() && ps.strag[0] == l.at(ps.prefix).TS {
		ps.prefix++
		ps.strag = ps.strag[1:]
	}
}

// insert places v at position p, demoting any peer prefix that spans p
// (its values at positions ≥ p become stragglers, keeping the position
// invariant; Add re-absorbs them right away when j is receiving v itself).
// Below the frontier the piece holding p is reallocated so published views
// stay immutable — the window, or for a straggler deeper than the window
// the whole sealed prefix; inside the unfrozen tail a memmove suffices
// because no view references those positions.
func (l *ValueLog) insert(p int, v Value) {
	for j := range l.peers {
		if j == l.self {
			continue
		}
		ps := &l.peers[j]
		if ps.prefix <= p {
			continue
		}
		ns := make([]Timestamp, 0, ps.prefix-p+len(ps.strag))
		for i := p; i < ps.prefix; i++ {
			ns = append(ns, l.at(i).TS)
		}
		l.stats.Demotions += int64(ps.prefix - p)
		ps.strag = append(ns, ps.strag...)
		ps.prefix = p
	}
	if w := v.TS.Writer; w >= 0 && w < l.n && v.TS.Tag > l.last[w] {
		l.last[w] = v.TS.Tag
	}
	w := p - len(l.sealed)
	switch {
	case p < l.frozen:
		if w < 0 {
			l.sealed = insertCopy(l.sealed, p, v)
			l.stats.COWCopied += int64(len(l.sealed) - 1)
		} else {
			l.win = insertCopy(l.win, w, v)
			l.stats.COWCopied += int64(len(l.win) - 1)
		}
		l.frozen++
		l.noteFrozen(v)
		l.publishExt()
		l.stats.COWInserts++
	case w == len(l.win):
		l.win = append(l.win, v)
		l.stats.Appends++
	default:
		l.win = append(l.win, Value{})
		copy(l.win[w+1:], l.win[w:])
		l.win[w] = v
		l.stats.TailInserts++
	}
	// Every prefix digest above p gains v.
	d := digestValue(v)
	l.digsum = append(l.digsum, 0)
	for k := len(l.digsum) - 1; k > p; k-- {
		l.digsum[k] = l.digsum[k-1] + d
	}
}

// insertCopy returns a fresh array holding s with v at position p, with
// growth headroom so the append that follows does not copy it all again.
func insertCopy(s []Value, p int, v Value) []Value {
	out := make([]Value, len(s)+1, len(s)+len(s)/4+8)
	copy(out, s[:p])
	out[p] = v
	copy(out[p+1:], s[p:])
	return out
}

// noteFrozen folds a newly frozen value into the master per-writer extract.
// Under a Fold the values of one writer must freeze in tag order, which a
// log whose writers' values each enter after their predecessor guarantees:
// a straggler frozen in below the frontier is then its writer's latest.
func (l *ValueLog) noteFrozen(v Value) {
	if w := v.TS.Writer; w < 0 || w >= l.n {
		l.extOK = false
		return
	}
	l.ext.note(v)
}

// publishExt snapshots the master extract for attachment to views.
func (l *ValueLog) publishExt() {
	if l.extOK {
		l.ext.publish()
	}
}

// AdvanceFrontier marks every value with tag ≤ r stable: the node learned
// that the prefix V^{≤r} is an equivalence set held by n−f nodes (its own
// good lattice operation at r). The prefix is frozen in place; later
// views at or below r are zero-copy. MaxTag is ignored — freezing at the
// one-shot pseudo-tag would make every later insert a copy-on-write.
func (l *ValueLog) AdvanceFrontier(r Tag) {
	if r <= l.frontier || r == MaxTag {
		return
	}
	l.frontier = r
	if nf := l.upperBound(r); nf > l.frozen {
		l.freezeTo(nf)
	}
}

// freezeTo grows the frozen prefix to nf values, then seals the oldest
// frozen values out of the window once more than windowCap have gathered
// there, leaving the newest windowCap/2 within a straggler's reach.
func (l *ValueLog) freezeTo(nf int) {
	ns := len(l.sealed)
	for _, v := range l.win[l.frozen-ns : nf-ns] {
		l.noteFrozen(v)
	}
	l.frozen = nf
	l.publishExt()
	l.stats.Freezes++
	if wf := nf - ns; wf > windowCap {
		k := wf - windowCap/2
		l.sealed = append(l.sealed, l.win[:k]...)
		l.win = l.win[k:]
	}
}

// Frontier returns the checkpoint of the current frozen prefix (the zero
// Checkpoint when nothing is frozen yet). Count is absolute: it includes
// the pruned prefix, so checkpoints stay comparable across nodes with
// different prune points.
func (l *ValueLog) Frontier() Checkpoint {
	return Checkpoint{Tag: l.frontier, Count: l.off + l.frozen, Digest: l.digsum[l.frozen]}
}

// Vouches reports whether this log's own prefix of ck.Count values matches
// the checkpoint digest — i.e. both nodes hold the exact same value
// sequence below that point. O(1) via the digest prefix sums. Checkpoints
// strictly below this log's prune point cannot be vouched (their digest
// is no longer reconstructible), which is fine: the prune point itself
// was globally vouched, so every live checkpoint is at or above it.
func (l *ValueLog) Vouches(ck Checkpoint) bool {
	idx := ck.Count - l.off
	return idx >= 0 && idx < len(l.digsum) && l.digsum[idx] == ck.Digest
}

// frozenView returns the first k ≤ frozen values as a zero-copy alias of
// the log's two pieces, with the pruned-prefix summary attached.
func (l *ValueLog) frozenView(k int) View {
	ns := min(k, len(l.sealed))
	v := View{base: l.sealed[:ns:ns], mid: l.win[: k-ns : k-ns], fold: l.fold}
	if k == l.frozen && l.extOK {
		v.ext = l.ext.pub
	}
	if l.off > 0 {
		v.pre = l.pre.pub
		v.pruned = l.off
	}
	return v
}

// ViewLE returns V[self]^{≤r}. At or below the frozen prefix this is a
// zero-copy alias of the log; above it, the frozen prefix is aliased and
// only the unfrozen tail portion is copied.
func (l *ValueLog) ViewLE(r Tag) View {
	return l.PeerViewLE(l.self, r)
}

// AllView returns a view of every value held.
func (l *ValueLog) AllView() View { return l.ViewLE(MaxTag) }

// PeerViewLE materializes V[j]^{≤r} from j's cursor state: the shared
// prefix (zero-copy up to the frozen boundary) plus j's stragglers with
// tag ≤ r. The straggler-position invariant guarantees the concatenation
// is sorted.
func (l *ValueLog) PeerViewLE(j int, r Tag) View {
	limit := l.upperBound(r)
	var strag []Timestamp
	if j != l.self {
		ps := &l.peers[j]
		limit, strag = min(limit, ps.prefix), ps.strag
	}
	v := l.frozenView(min(limit, l.frozen))
	if m := limit - l.frozen; m > 0 {
		w := l.frozen - len(l.sealed)
		v.tail = make([]Value, m, m+len(strag))
		copy(v.tail, l.win[w:w+m])
	}
	for _, ts := range strag {
		if ts.Tag > r {
			break
		}
		if p, ok := l.locate(ts); ok {
			v.tail = append(v.tail, l.at(p))
		}
	}
	return v
}

// DeltaAbove splits view into (ck, delta): when this log vouches for ck
// and the view literally extends this log's prefix (its base aliases the
// backing array), the caller may ship only delta — the values above
// ck.Count — and the receiver reconstructs the view with ComposeAt.
// Returns false when the prefixes disagree or the view was not cut from
// this log; callers fall back to sending the full view.
func (l *ValueLog) DeltaAbove(view View, ck Checkpoint) ([]Value, bool) {
	idx := ck.Count - l.off
	if idx < 0 || idx > view.Len() || view.pruned != l.off || !l.Vouches(ck) {
		return nil, false
	}
	// The view's first idx values must be this log's: below the sealed
	// boundary by aliasing, without comparing elements; in the window — a
	// piece that is reallocated every few hundred appends — by comparing at
	// most the window's worth of timestamps.
	nb := len(view.base)
	if idx > nb+len(view.mid) || (min(idx, nb) > 0 && !sameBacking(view.base, l.sealed)) {
		return nil, false
	}
	for i := nb; i < idx; i++ {
		if view.mid[i-nb].TS != l.at(i).TS {
			return nil, false
		}
	}
	delta := make([]Value, 0, view.Len()-idx)
	for i := idx; i < view.Len(); i++ {
		delta = append(delta, view.At(i))
	}
	return delta, true
}

// ComposeAt rebuilds a view from a checkpoint this log vouches for and the
// delta above it. The prefix aliases the local frozen pieces (zero-copy);
// the delta may contain values this node does not hold. Returns false
// when the checkpoint no longer matches local state (the prefix changed
// under a copy-on-write insert) or the delta is not a sorted extension —
// callers escalate to a full-view borrow.
func (l *ValueLog) ComposeAt(ck Checkpoint, delta []Value) (View, bool) {
	idx := ck.Count - l.off
	if idx < 0 || idx > l.frozen || !l.Vouches(ck) {
		return View{}, false
	}
	last := Timestamp{Tag: -1}
	if idx > 0 {
		last = l.at(idx - 1).TS
	}
	for i := range delta {
		if !last.Less(delta[i].TS) {
			return View{}, false
		}
		last = delta[i].TS
	}
	view := l.frozenView(idx)
	view.tail = delta
	return view, true
}

// NoteVouch records that node j vouched for checkpoint ck: j attests it
// holds exactly this log's first ck.Count values. When this log vouches
// for ck too, j's cursor is advanced to cover that prefix (stragglers the
// prefix absorbs are folded in), which is what makes the PruneTo
// precondition — every peer's cursor covers the prune point — reachable
// without j re-sending its history. Returns false for an unverifiable or
// foreign checkpoint. Callers that hold an active EQTracker must note
// that cursor jumps bypass OnAdd; the tracker then undercounts j, which
// can only delay EQ, never falsely satisfy it.
func (l *ValueLog) NoteVouch(j int, ck Checkpoint) bool {
	if j == l.self || j < 0 || j >= l.n || !l.Vouches(ck) {
		return false
	}
	idx := ck.Count - l.off
	if idx <= 0 {
		return true // vouches (part of) the already-pruned prefix
	}
	ps := &l.peers[j]
	if idx <= ps.prefix {
		return true
	}
	cut := l.at(idx - 1).TS
	keep := ps.strag[:0]
	for _, ts := range ps.strag {
		if cut.Less(ts) {
			keep = append(keep, ts)
		}
	}
	ps.strag = keep
	ps.prefix = idx
	l.absorb(ps)
	return true
}

// PruneTo garbage-collects the value prefix below ck, a checkpoint every
// node has vouched for (the caller establishes global agreement; this log
// re-verifies its own digest and that every peer cursor covers the
// prefix). The pruned values are folded into the cumulative per-writer
// pre-extract so extracts stay exact, the retained values of each piece cut
// move to a fresh backing array so the dropped prefix becomes collectable,
// and all absolute counts (SelfLen, CountLE, Frontier.Count, checkpoint
// digests) are preserved via the base offset. Must not be called while an
// EQTracker from this log is live — prune between lattice operations.
func (l *ValueLog) PruneTo(ck Checkpoint) bool {
	idx := ck.Count - l.off
	if idx <= 0 || idx > l.size() || !l.Vouches(ck) {
		return false
	}
	for j := range l.peers {
		if j != l.self && l.peers[j].prefix < idx {
			return false
		}
	}
	for i := 0; i < idx; i++ {
		if w := l.at(i).TS.Writer; w < 0 || w >= l.n {
			return false // the pre-extract cannot summarize foreign writers
		}
	}
	// Freeze through the prune point first if the local frontier lags: the
	// prefix is globally vouched, a strictly stronger stability guarantee
	// than the n−f a frontier advance needs.
	if idx > l.frozen {
		l.freezeTo(idx)
		if ck.Tag > l.frontier && ck.Tag != MaxTag {
			l.frontier = ck.Tag
		}
	}
	for i := 0; i < idx; i++ {
		l.pre.note(l.at(i))
	}
	l.pre.publish()
	l.prunedTS = l.at(idx - 1).TS
	// Fresh backing arrays for the pieces the prune cuts: the old ones stay
	// alive only while previously published views still reference them.
	ks := min(idx, len(l.sealed))
	l.sealed = regrow(l.sealed[ks:], ks)
	if idx > ks {
		l.win = regrow(l.win[idx-ks:], idx-ks)
	}
	l.digsum = regrow(l.digsum[idx:], idx)
	l.frozen -= idx
	l.off += idx
	if ck.Tag > l.prunedTag {
		l.prunedTag = ck.Tag
	}
	for j := range l.peers {
		if j != l.self {
			l.peers[j].prefix -= idx
		}
	}
	l.stats.Prunes++
	l.stats.PrunedVals += int64(idx)
	return true
}

// regrow copies what a prune keeps of a piece into a fresh array with room
// for as many more as the prune dropped from it: the array keeps its old
// size, so the inserts up to the next prune — which drops about as many —
// do not grow it again from the few values kept.
func regrow[T any](s []T, room int) []T {
	out := make([]T, len(s), len(s)+room)
	copy(out, s)
	return out
}

// PruneWorthwhile reports whether PruneTo(ck) would drop at least half a
// window of values. A prune copies the pieces and digest sums it keeps and
// republishes the pre-extract, so a node free to choose when to prune — one
// without a WAL record to honour — waits until that cost is spread over as
// many values as a seal moves at least.
func (l *ValueLog) PruneWorthwhile(ck Checkpoint) bool {
	return ck.Count-l.off >= windowCap/2
}

// HeapBytes estimates the log's resident size in bytes (backing arrays,
// payloads, straggler sets) — deterministic, for benchmarks.
func (l *ValueLog) HeapBytes() int {
	const valHdr = 40 // Timestamp (16) + payload slice header (24)
	b := cap(l.digsum)*8 + (cap(l.sealed)+cap(l.win))*valHdr
	for _, seg := range [2][]Value{l.sealed, l.win} {
		for i := range seg {
			b += len(seg[i].Payload)
		}
	}
	for j := range l.peers {
		b += cap(l.peers[j].strag) * 16
	}
	return b
}

// ResetFromLog re-arms t as the incremental tracker for EQ(V^{≤r}, self)
// over a log, set up in O(n log H) via the per-peer cursors. It reuses t's
// counters, so a node that keeps one tracker for its one EQ wait at a time
// allocates nothing per lattice operation.
func (t *EQTracker) ResetFromLog(l *ValueLog, r Tag, quorum int) {
	t.R, t.self, t.quorum = r, l.self, quorum
	t.cnt = slices.Grow(t.cnt[:0], l.n)[:l.n]
	for j := range t.cnt {
		t.cnt[j] = l.CountLE(j, r)
	}
	t.cntSelf = t.cnt[l.self]
}

// digestValue hashes one value (FNV-1a over timestamp and payload, then an
// avalanche mix so additive combination distributes well). Prefix digests
// are sums of these, hence order-independent and cheap to maintain.
func digestValue(v Value) uint64 {
	const prime64 = 1099511628211
	h := uint64(14695981039346656037)
	mix8 := func(x uint64) {
		for i := 0; i < 8; i++ {
			h ^= x & 0xff
			h *= prime64
			x >>= 8
		}
	}
	mix8(uint64(v.TS.Tag))
	mix8(uint64(int64(v.TS.Writer)))
	for _, b := range v.Payload {
		h ^= uint64(b)
		h *= prime64
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}
