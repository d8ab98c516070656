package core

import (
	"bytes"
	"slices"
	"testing"
)

// pruneFixture builds a 3-node log where every peer holds the full
// prefix (cursors advanced via NoteVouch), frozen through tag fr.
func pruneFixture(t *testing.T, tags []Tag, fr Tag) *ValueLog {
	t.Helper()
	l := NewValueLog(3, 0)
	for _, tag := range tags {
		v := diffValue(tag, int(tag)%3)
		l.Add(1, v)
		l.Add(2, v)
	}
	l.AdvanceFrontier(fr)
	ck := l.Frontier()
	for j := 1; j < 3; j++ {
		if !l.NoteVouch(j, ck) {
			t.Fatalf("NoteVouch(%d, %+v) refused", j, ck)
		}
	}
	return l
}

func TestPruneToBasic(t *testing.T) {
	l := pruneFixture(t, []Tag{2, 4, 6, 8, 10, 12}, 8)
	ck := l.Frontier()
	if ck.Count != 4 {
		t.Fatalf("frontier count = %d, want 4", ck.Count)
	}
	pre := l.AllView()
	preExtract := pre.Extract(3)
	if !l.PruneTo(ck) {
		t.Fatal("PruneTo refused a fully-vouched checkpoint")
	}
	if got := l.PrunedCount(); got != 4 {
		t.Fatalf("PrunedCount = %d, want 4", got)
	}
	if got := l.RetainedLen(); got != 2 {
		t.Fatalf("RetainedLen = %d, want 2", got)
	}
	if got := l.SelfLen(); got != 6 {
		t.Fatalf("SelfLen = %d, want 6 (absolute)", got)
	}
	for j := 0; j < 3; j++ {
		if got := l.Len(j); got != 6 {
			t.Fatalf("Len(%d) = %d, want 6", j, got)
		}
		if got := l.CountLE(j, 8); got != 4 {
			t.Fatalf("CountLE(%d, 8) = %d, want 4", j, got)
		}
	}
	// The pruned checkpoint itself must still be vouchable, and the
	// frontier must be unchanged in absolute terms.
	if !l.Vouches(ck) {
		t.Fatal("log no longer vouches the checkpoint it pruned to")
	}
	if got := l.Frontier(); got != ck {
		t.Fatalf("Frontier changed across prune: %+v vs %+v", got, ck)
	}
	// Extraction must be unchanged: the pre-extract stands in.
	post := l.AllView()
	if got := post.LogicalLen(); got != 6 {
		t.Fatalf("LogicalLen = %d, want 6", got)
	}
	for w, want := range preExtract {
		if got := post.Extract(3)[w]; !bytes.Equal(got, want) {
			t.Fatalf("Extract[%d] = %q, want %q", w, got, want)
		}
	}
	// Standalone must materialize each writer's latest pruned value and
	// extract identically.
	sa := post.Standalone()
	if sa.Pruned() != 0 {
		t.Fatal("Standalone view still depends on a pruned prefix")
	}
	for w, want := range preExtract {
		if got := sa.Extract(3)[w]; !bytes.Equal(got, want) {
			t.Fatalf("Standalone Extract[%d] = %q, want %q", w, got, want)
		}
	}
	// Delta round-trip across the prune point.
	if delta, ok := l.DeltaAbove(post, ck); !ok {
		t.Fatal("DeltaAbove refused the pruned checkpoint")
	} else if len(delta) != 2 {
		t.Fatalf("delta has %d values, want 2", len(delta))
	} else if got, ok2 := l.ComposeAt(ck, delta); !ok2 || !got.Equal(post) {
		t.Fatalf("ComposeAt mismatch: %v vs %v", got, post)
	}
}

func TestPruneToRefusals(t *testing.T) {
	// Lagging peer cursor: peer 2 never vouched.
	l := NewValueLog(3, 0)
	for _, tag := range []Tag{2, 4, 6} {
		l.Add(1, diffValue(tag, 1))
	}
	l.AdvanceFrontier(6)
	ck := l.Frontier()
	l.NoteVouch(1, ck)
	if l.PruneTo(ck) {
		t.Fatal("PruneTo succeeded with a lagging peer cursor")
	}
	l.NoteVouch(2, ck)
	if !l.PruneTo(ck) {
		t.Fatal("PruneTo refused after all cursors caught up")
	}
	// Empty and stale checkpoints.
	if l.PruneTo(Checkpoint{}) {
		t.Fatal("PruneTo succeeded on the zero checkpoint")
	}
	if l.PruneTo(Checkpoint{Tag: 6, Count: 3, Digest: 0xbad}) {
		t.Fatal("PruneTo succeeded on a digest mismatch")
	}
}

func TestNoteVouchAbsorbsStragglers(t *testing.T) {
	l := NewValueLog(3, 0)
	for _, tag := range []Tag{2, 4, 6, 8} {
		l.Add(0, diffValue(tag, 0))
	}
	// Peer 1 has only a straggler in the middle of the prefix.
	l.Add(1, diffValue(6, 0))
	if got := l.Len(1); got != 1 {
		t.Fatalf("Len(1) = %d, want 1", got)
	}
	l.AdvanceFrontier(8)
	ck := l.Frontier()
	if !l.NoteVouch(1, ck) {
		t.Fatal("NoteVouch refused own frontier")
	}
	if got := l.Len(1); got != 4 {
		t.Fatalf("Len(1) after vouch = %d, want 4", got)
	}
	// A foreign checkpoint must be refused.
	if l.NoteVouch(1, Checkpoint{Tag: 8, Count: 4, Digest: 0xbad}) {
		t.Fatal("NoteVouch accepted a foreign digest")
	}
}

func TestAddBelowPruneRejected(t *testing.T) {
	l := pruneFixture(t, []Tag{2, 4, 6}, 6)
	if !l.PruneTo(l.Frontier()) {
		t.Fatal("PruneTo refused")
	}
	if newJ, newSelf := l.Add(1, diffValue(3, 1)); newJ || newSelf {
		t.Fatal("Add admitted a new value below the pruned checkpoint tag")
	}
	if got := l.SelfLen(); got != 3 {
		t.Fatalf("SelfLen = %d, want 3", got)
	}
	// Values above the prune tag are unaffected.
	if _, newSelf := l.Add(1, diffValue(9, 1)); !newSelf {
		t.Fatal("Add rejected a value above the pruned checkpoint tag")
	}
}

// TestPruneToAcrossSealSeam prunes a two-piece log (ten values sealed, two
// frozen in the window) at points on both sides of the seam and on it:
// absolute counts, extraction, the views cut before and the log's further
// growth must not notice which piece the cut fell in.
func TestPruneToAcrossSealSeam(t *testing.T) {
	var tags []Tag
	for tag := Tag(2); tag <= 24; tag += 2 {
		tags = append(tags, tag)
	}
	for _, c := range []struct {
		name  string
		count int
	}{
		{"inside the sealed prefix", 6},
		{"at the seam", 10},
		{"inside the window", 11},
	} {
		t.Run(c.name, func(t *testing.T) {
			shrinkWindow(t, 4)
			ck := pruneFixture(t, tags, Tag(2*c.count)).Frontier()
			l := pruneFixture(t, tags, 24)
			if len(l.sealed) != 10 || l.frozen != 12 {
				t.Fatalf("layout: %d sealed, %d frozen, want 10 and 12", len(l.sealed), l.frozen)
			}
			before := l.AllView()
			beforeTS, want := before.Timestamps(), before.Extract(3)
			if !l.PruneTo(ck) {
				t.Fatalf("PruneTo(%+v) refused", ck)
			}
			if got := l.RetainedLen(); got != 12-c.count {
				t.Fatalf("RetainedLen = %d, want %d", got, 12-c.count)
			}
			if l.SelfLen() != 12 || l.Frontier().Count != 12 || !l.Vouches(ck) {
				t.Fatalf("absolute counts moved: SelfLen %d, frontier %+v", l.SelfLen(), l.Frontier())
			}
			// A straggler under the frontier and an append above it, on the
			// pieces the prune left behind.
			l.Add(1, diffValue(23, 1))
			l.Add(1, diffValue(26, 2))
			after := l.AllView()
			wantTS := append(append([]Timestamp{}, beforeTS[c.count:11]...),
				Timestamp{Tag: 23, Writer: 1}, beforeTS[11], Timestamp{Tag: 26, Writer: 2})
			if got := after.Timestamps(); !slices.Equal(got, wantTS) {
				t.Fatalf("retained = %v, want %v", got, wantTS)
			}
			if after.LogicalLen() != 14 {
				t.Fatalf("LogicalLen = %d, want 14", after.LogicalLen())
			}
			want[1], want[2] = diffValue(23, 1).Payload, diffValue(26, 2).Payload
			for w, got := range after.Extract(3) {
				if !bytes.Equal(got, want[w]) {
					t.Fatalf("Extract[%d] = %q, want %q", w, got, want[w])
				}
			}
			if got := before.Timestamps(); !slices.Equal(got, beforeTS) {
				t.Fatalf("view cut before the prune changed: %v, was %v", got, beforeTS)
			}
			ck = l.Frontier()
			if delta, ok := l.DeltaAbove(after, ck); !ok {
				t.Fatal("DeltaAbove refused the frontier of the pruned log")
			} else if got, ok := l.ComposeAt(ck, delta); !ok || !got.Equal(after) {
				t.Fatalf("ComposeAt mismatch: %v vs %v", got, after)
			}
		})
	}
}

// TestViewsComparableAcrossPrunePoints: views cut from one log before and
// after a prune compare as the sets they stand for. The later view holds
// fewer values physically than the earlier one, and some it does not hold
// at all, yet it contains the earlier view; a view with a value neither
// holds nor summarizes is comparable with neither.
func TestViewsComparableAcrossPrunePoints(t *testing.T) {
	l := pruneFixture(t, []Tag{2, 4, 6, 8, 10, 12, 14, 16}, 16)
	early := l.ViewLE(10)
	before := l.AllView()
	for _, tag := range []Tag{18, 20} {
		l.Add(1, diffValue(tag, int(tag)%3))
		l.Add(2, diffValue(tag, int(tag)%3))
	}
	if !l.PruneTo(l.Frontier()) {
		t.Fatal("PruneTo refused")
	}
	after := l.AllView()
	if after.Len() >= before.Len() || after.Pruned() != 8 {
		t.Fatalf("after the prune: %d held, %d pruned; want fewer than %d held, 8 pruned", after.Len(), after.Pruned(), before.Len())
	}
	for _, c := range []struct {
		name     string
		sub, sup View
	}{
		{"early ⊆ after", early, after},
		{"before ⊆ after", before, after},
		{"early ⊆ before", early, before},
	} {
		if !c.sub.SubsetOf(c.sup) || c.sup.SubsetOf(c.sub) || !c.sup.ComparableWith(c.sub) {
			t.Errorf("%s: want a strict subset", c.name)
		}
	}
	if !before.Equal(l.ViewLE(16)) || !l.ViewLE(16).Equal(before) {
		t.Error("the pruned log's view at the old frontier differs from the view cut there before the prune")
	}
	// A value below the retained ones that the log never held (its writer's
	// latest pruned tag is lower): neither view contains the other.
	odd := ViewOf(diffValue(17, 0))
	if odd.ComparableWith(after) || after.ComparableWith(odd) {
		t.Error("a view holding a value the pruned log never held compares with it")
	}
}

// TestPruneAdmitsLaterValueBelowCheckpointTag: a node can freeze at a tag
// above every value it holds (here 8, holding 2, 4 and 6), and every node
// can vouch that prefix while a value tagged in between (7) is still on
// its way. Once it arrives it sorts above every pruned value, so it is new
// and must be admitted; only a value at or below the last pruned timestamp
// is one the pruned prefix already holds.
func TestPruneAdmitsLaterValueBelowCheckpointTag(t *testing.T) {
	l := pruneFixture(t, []Tag{2, 4, 6}, 8)
	ck := l.Frontier()
	if ck.Tag != 8 || ck.Count != 3 || !l.PruneTo(ck) {
		t.Fatalf("PruneTo(%+v) refused", ck)
	}
	if _, newSelf := l.Add(1, diffValue(7, 1)); !newSelf {
		t.Fatal("Add rejected a value above every pruned one")
	}
	if _, newSelf := l.Add(2, diffValue(4, 1)); newSelf {
		t.Fatal("Add re-admitted a pruned value")
	}
	if got := l.SelfLen(); got != 4 {
		t.Fatalf("SelfLen = %d, want 4", got)
	}
	if got := l.AllView().Extract(3)[1]; !bytes.Equal(got, diffValue(7, 1).Payload) {
		t.Fatalf("Extract[1] = %q, want the admitted value", got)
	}
}
