package cluster

import (
	"fmt"
	"sort"

	"mpsnap/internal/rt"
	"mpsnap/internal/svc"
	"mpsnap/internal/wire"
)

// markMagic tags encoded Marks so the validator can tell marked workload
// values from arbitrary bytes.
const markMagic byte = 0xA7

// Mark is the cross-shard workload value: each write records its writer,
// its per-writer sequence number, and the key + sequence number of the
// writer's immediately preceding write (PrevKey == "" for the first).
// Because a writer issues writes one at a time, any consistent cut that
// contains write (Writer, Seq) must also reflect its predecessor at
// sequence ≥ PrevSeq on whichever shard owns PrevKey — the per-writer
// prefix-closure invariant Cut.Validate checks, derived from (A1)
// order-consistency and (A4) snapshot containment stretched across
// shards.
type Mark struct {
	Writer  string
	Seq     int64
	PrevKey string
	PrevSeq int64
}

// Encode serializes the mark.
func (mk Mark) Encode() []byte {
	var b wire.Buffer
	b.PutByte(markMagic)
	b.PutString(mk.Writer)
	b.PutVarint(mk.Seq)
	b.PutString(mk.PrevKey)
	b.PutVarint(mk.PrevSeq)
	return b.Bytes()
}

// parseMark decodes a mark, reporting false for non-mark values.
func parseMark(p []byte) (Mark, bool) {
	if len(p) == 0 || p[0] != markMagic {
		return Mark{}, false
	}
	d := wire.NewDecoder(p)
	d.Byte()
	mk := Mark{Writer: d.String(), Seq: d.Varint(), PrevKey: d.String(), PrevSeq: d.Varint()}
	if d.Err() != nil || d.Remaining() != 0 {
		return Mark{}, false
	}
	return mk, true
}

// ShardCut is one shard's slice of a global cut: the shard snapshot (one
// cumulative segment per shard member) plus the timing of the scan that
// produced it.
type ShardCut struct {
	Shard     int
	Contact   int      // global node that served the scan (-1: this node's own shard)
	ScanStart rt.Ticks // admission time at the serving node (≥ Frontier)
	ScanEnd   rt.Ticks // completion time at the serving node
	Pending   int      // updates queued behind the scan at admission
	Segments  [][]byte // per-member cumulative key segments
	Rounds    int      // times this shard was (re-)scanned for the cut
}

// Cut is a coordinated cross-shard snapshot: every shard scanned at or
// after one timestamp frontier. Each per-shard scan is individually
// linearizable (the EQ-ASO guarantee); the frontier plus closure repair
// extend that to a consistent global cut, certified by Validate.
type Cut struct {
	Frontier rt.Ticks
	Map      ShardMap
	Shards   []ShardCut
	Rounds   int // total coordination rounds (1 + closure repairs)
}

// Skew is the cut's temporal spread: the latest shard scan completion
// minus the frontier. A perfectly instantaneous cut has skew equal to
// one shard scan's latency.
func (c *Cut) Skew() rt.Ticks {
	var max rt.Ticks
	for _, sc := range c.Shards {
		if d := sc.ScanEnd - c.Frontier; d > max {
			max = d
		}
	}
	return max
}

// bestMarks indexes a shard snapshot: per key, the highest-sequence mark
// any member segment holds for it.
func bestMarks(segments [][]byte) map[string]Mark {
	best := make(map[string]Mark)
	for _, seg := range segments {
		for _, rec := range svc.DecodeRecords(seg) {
			mk, ok := parseMark(rec.V)
			if !ok {
				continue
			}
			if cur, seen := best[rec.K]; !seen || mk.Seq > cur.Seq {
				best[rec.K] = mk
			}
		}
	}
	return best
}

// GlobalScan takes one frontier cut: it stamps the frontier now, then
// scans every shard in parallel (own shards through their own service
// queue, the rest via one contact each, retrying members on timeout). Every
// shard scan linearizes at or after the frontier. The result is NOT yet
// guaranteed prefix-closed — a writer's predecessor can commit between
// two shards' linearization points — use GlobalScanClosed for a
// validated, repaired cut.
func (n *Node) GlobalScan() (*Cut, error) {
	m := n.cfg.Map
	frontier := n.rtm.Now()
	cut := &Cut{Frontier: frontier, Map: m, Shards: make([]ShardCut, m.Shards()), Rounds: 1}
	targets := make([]int, m.Shards())
	for s := range targets {
		targets[s] = s
	}
	if err := n.scanShards(frontier, targets, cut.Shards); err != nil {
		return nil, err
	}
	return cut, nil
}

// cutRounds bounds closure repair. Each repair round re-scans a shard
// strictly after the round that detected the hole, and the missing
// predecessor had already committed before detection, so one round closes
// every detected hole; the cap only guards against a cut of a non-mark
// workload.
const cutRounds = 5

// GlobalScanClosed takes a frontier cut and repairs it to prefix
// closure: while the cut holds an update whose causal predecessor is
// missing from the predecessor's shard, those shards are re-scanned at the
// same frontier and the cut re-checked. The returned cut, when err is nil,
// passes Validate's closure check.
func (n *Node) GlobalScanClosed() (*Cut, error) {
	cut, err := n.GlobalScan()
	if err != nil {
		return nil, err
	}
	for cut.Rounds < cutRounds {
		missing := cut.missingClosure()
		if len(missing) == 0 {
			return cut, nil
		}
		prev := make(map[int]int, len(missing))
		for _, s := range missing {
			prev[s] = cut.Shards[s].Rounds
		}
		if err := n.scanShards(cut.Frontier, missing, cut.Shards); err != nil {
			return cut, err
		}
		for _, s := range missing {
			cut.Shards[s].Rounds = prev[s] + 1
		}
		cut.Rounds++
	}
	if missing := cut.missingClosure(); len(missing) > 0 {
		return cut, fmt.Errorf("cluster: cut not prefix-closed after %d rounds (shards %v)", cut.Rounds, missing)
	}
	return cut, nil
}

// scanShards scans the target shards at the given frontier in parallel,
// writing results into out (indexed by shard). An owned shard's scan is
// admitted like a routed one, its answer filling the same kind of slot a
// remote MsgCutResp fills. Unresponsive or refusing contacts are retried
// on another member (an unresponsive one is suspected).
func (n *Node) scanShards(frontier rt.Ticks, targets []int, out []ShardCut) error {
	remaining := targets
	for attempt := 0; len(remaining) > 0 && attempt < n.attempts; attempt++ {
		calls := make([]*pendingCall, len(remaining))
		contacts := make([]int, len(remaining))
		for i, s := range remaining {
			if n.owned[s] != nil {
				pc := &pendingCall{}
				calls[i], contacts[i] = pc, -1
				n.rtm.Atomic(func() {
					n.admit(s, nil, func(r MsgCutResp) {
						r.Frontier = frontier
						pc.fill(r)
					})
				})
				continue
			}
			contacts[i] = n.pickContact(s, attempt)
			var msg rt.Message
			calls[i], msg = n.beginCall(func(req uint64) rt.Message {
				return MsgCutReq{Req: req, Shard: s, Frontier: frontier}
			})
			n.cl.Send(contacts[i], msg)
		}
		if err := n.await("cluster: await cut", calls...); err != nil {
			return err
		}
		var retry []int
		for i, s := range remaining {
			// A mistyped response (a stale-request collision) is a
			// non-answer, like none at all: the shard is retried.
			resp, ok := calls[i].resp.(MsgCutResp)
			switch {
			case !ok:
				n.suspect(contacts[i])
				retry = append(retry, s)
			case resp.Status == StatusOK:
				out[s] = ShardCut{
					Shard: s, Contact: contacts[i],
					ScanStart: resp.ScanStart, ScanEnd: resp.ScanEnd,
					Pending: resp.Pending, Segments: resp.Segments, Rounds: 1,
				}
			default:
				retry = append(retry, s)
			}
		}
		remaining = retry
	}
	if len(remaining) > 0 {
		return fmt.Errorf("%w: cut shards %v unresponsive", ErrNoContact, remaining)
	}
	return nil
}

// Validate checks the cut against the cross-shard consistency invariants
// derived from the per-shard (A1)–(A4) guarantees, and returns every
// violation found (empty slice = the cut is consistent):
//
//   - frontier sanity: every shard scan linearized inside the cut's
//     window (Frontier ≤ ScanStart ≤ ScanEnd);
//   - every value is an encoded Mark (the marked workload writes nothing
//     else);
//   - per-key writer ownership: a key is written by exactly one writer
//     (the marked workload's namespace discipline);
//   - per-writer prefix closure: an update in cut(i) implies its causal
//     predecessor — the same writer's previous write — is in cut(j) of
//     the shard owning the predecessor key, at sequence ≥ PrevSeq;
//   - ring placement: every key lives on the shard the cut map's ring
//     assigns it.
func (c *Cut) Validate() []string {
	var out []string
	marks := make([]map[string]Mark, len(c.Shards))
	writers := make(map[string]string) // key → writer, across all shards
	ring := c.Map.Ring()
	for s := range c.Shards {
		sc := &c.Shards[s]
		if sc.Segments == nil && sc.ScanEnd == 0 {
			out = append(out, fmt.Sprintf("shard %d absent from cut", s))
			marks[s] = map[string]Mark{}
			continue
		}
		if sc.ScanStart < c.Frontier {
			out = append(out, fmt.Sprintf("shard %d scan linearized at %d, before frontier %d", s, sc.ScanStart, c.Frontier))
		}
		if sc.ScanEnd < sc.ScanStart {
			out = append(out, fmt.Sprintf("shard %d scan window inverted [%d,%d]", s, sc.ScanStart, sc.ScanEnd))
		}
		marks[s] = bestMarks(sc.Segments)
		for _, seg := range sc.Segments {
			for _, rec := range svc.DecodeRecords(seg) {
				mk, ok := parseMark(rec.V)
				if !ok {
					out = append(out, fmt.Sprintf("shard %d key %q holds a non-mark value", s, rec.K))
					continue
				}
				if w, seen := writers[rec.K]; seen && w != mk.Writer {
					out = append(out, fmt.Sprintf("key %q written by two writers (%s, %s)", rec.K, w, mk.Writer))
				} else {
					writers[rec.K] = mk.Writer
				}
				if owner := ring.ShardFor(rec.K); owner != s {
					out = append(out, fmt.Sprintf("key %q found in cut(%d) but ring places it on shard %d", rec.K, s, owner))
				}
			}
		}
	}
	out = append(out, c.closureViolations(marks, ring, nil)...)
	return out
}

// missingClosure returns the shards that must be re-scanned to restore
// per-writer prefix closure: the owner shards of every missing or
// too-old causal predecessor.
func (c *Cut) missingClosure() []int {
	marks := make([]map[string]Mark, len(c.Shards))
	for s := range c.Shards {
		marks[s] = bestMarks(c.Shards[s].Segments)
	}
	need := make(map[int]bool)
	c.closureViolations(marks, c.Map.Ring(), need)
	out := make([]int, 0, len(need))
	for s := range need {
		out = append(out, s)
	}
	sort.Ints(out)
	return out
}

// closureViolations runs the prefix-closure check over the indexed cut.
// When need is non-nil, it collects the owner shards of the violated
// predecessors instead of allocating messages for them.
func (c *Cut) closureViolations(marks []map[string]Mark, ring *Ring, need map[int]bool) []string {
	var out []string
	for s := range c.Shards {
		for k, mk := range marks[s] {
			if mk.PrevKey == "" {
				continue
			}
			owner := ring.ShardFor(mk.PrevKey)
			if owner < 0 || owner >= len(marks) {
				continue
			}
			pm, ok := marks[owner][mk.PrevKey]
			if ok && pm.Seq >= mk.PrevSeq {
				continue
			}
			if need != nil {
				need[owner] = true
				continue
			}
			if !ok {
				out = append(out, fmt.Sprintf(
					"update %s@%d on key %q in cut(%d) but predecessor key %q missing from cut(%d)",
					mk.Writer, mk.Seq, k, s, mk.PrevKey, owner))
			} else {
				out = append(out, fmt.Sprintf(
					"update %s@%d on key %q in cut(%d) but predecessor %q in cut(%d) is at seq %d < %d",
					mk.Writer, mk.Seq, k, s, mk.PrevKey, owner, pm.Seq, mk.PrevSeq))
			}
		}
	}
	return out
}
