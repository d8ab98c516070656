// Package rsm builds a totally ordered replicated log — general state
// machine replication — on top of an atomic snapshot object, combining
// the repository's pieces the way the paper's introduction sketches
// (linearizable replicated state machines, references [37] and [41], and
// wait-free constructions [5], [27]).
//
// Commutative-command replication needs no consensus (see package
// statemachine); a *totally ordered* log does. Each log slot is decided
// by randomized binary consensus sweeps over the snapshot: candidates
// (nodes) are considered in order, and a consensus.Instance decides
// whether the candidate's next uncommitted proposal wins the slot. All
// consensus state — proposals, per-instance phase records, and decided
// slots — lives in the proposer's own snapshot segment, so the whole
// construction is a single snapshot object underneath (obj is an
// mpsnap.Object; it must be an ASO).
//
// Safety (total order, no loss, no duplication, per-node FIFO) is
// deterministic; termination of Append holds with probability 1 (local
// coins), matching the FLP-imposed trade-off. Decisions are published in
// segments, so laggards adopt them instead of re-running consensus.
package rsm

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"mpsnap/consensus"
	"mpsnap/internal/segment"
	"mpsnap/internal/wire"
)

// Config parameterizes a log replica.
type Config struct {
	// N nodes, resilience F (n > 2f).
	N, F int
	// Rand drives consensus coins; required.
	Rand *rand.Rand
	// MaxSweeps bounds candidate sweeps per slot (0 = 10000).
	MaxSweeps int
}

// Entry is one committed command.
type Entry struct {
	// Slot is the log index.
	Slot int
	// Node is the proposer; Seq its per-proposer sequence (1-based).
	Node, Seq int
	// Cmd is the command payload.
	Cmd []byte
}

// state is a node's full published segment.
type state struct {
	Proposals [][]byte                      // the node's commands, in append order
	Phases    map[string][]consensus.Record // consensus records per instance key
	Decisions map[int]int                   // slot -> winning candidate (node id)
}

var proposals = segment.List(segment.Bytes, 1)

// stateCodec serializes a segment deterministically: map entries are
// emitted in sorted key order, so equal segments encode to equal bytes.
var stateCodec = segment.Codec[state]{
	Put: func(b *wire.Buffer, s state) {
		proposals.Put(b, s.Proposals)
		keys := make([]string, 0, len(s.Phases))
		for k := range s.Phases {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		b.PutUvarint(uint64(len(keys)))
		for _, k := range keys {
			b.PutString(k)
			consensus.Records.Put(b, s.Phases[k])
		}
		slots := make([]int, 0, len(s.Decisions))
		for slot := range s.Decisions {
			slots = append(slots, slot)
		}
		sort.Ints(slots)
		b.PutUvarint(uint64(len(slots)))
		for _, slot := range slots {
			b.PutInt(slot)
			b.PutInt(s.Decisions[slot])
		}
	},
	Get: func(d *wire.Decoder) state {
		s := newState()
		s.Proposals = proposals.Get(d)
		for i, n := 0, d.Count(2); i < n && d.Err() == nil; i++ {
			k := d.String()
			s.Phases[k] = consensus.Records.Get(d)
		}
		for i, n := 0, d.Count(2); i < n && d.Err() == nil; i++ {
			slot := d.Int()
			s.Decisions[slot] = d.Int()
		}
		return s
	},
}

func newState() state {
	return state{Phases: make(map[string][]consensus.Record), Decisions: make(map[int]int)}
}

// Log is one node's replica handle.
type Log struct {
	seg *segment.Own[state]
	id  int
	cfg Config

	st        state
	decisions map[int]int // local cache of slot -> candidate
	committed []Entry     // decided prefix
}

// New creates node id's replica.
func New(obj segment.Object, id int, cfg Config) (*Log, error) {
	if cfg.N <= 2*cfg.F || cfg.N <= 0 {
		return nil, fmt.Errorf("rsm: need n > 2f, got n=%d f=%d", cfg.N, cfg.F)
	}
	if cfg.Rand == nil {
		return nil, errors.New("rsm: Config.Rand is required")
	}
	if cfg.MaxSweeps == 0 {
		cfg.MaxSweeps = 10000
	}
	return &Log{
		seg:       segment.NewOwn(obj, id, "rsm", stateCodec),
		id:        id,
		cfg:       cfg,
		st:        newState(),
		decisions: make(map[int]int),
	}, nil
}

func (l *Log) publish() error { return l.seg.Put(l.st) }

// scan decodes all segments (nil for unwritten ones) and folds any newly
// visible decisions into the local cache.
func (l *Log) scan() ([]*state, error) {
	segs, err := l.seg.Scan()
	if err != nil {
		return nil, err
	}
	for _, s := range segs {
		if s != nil {
			for slot, cand := range s.Decisions {
				l.decisions[slot] = cand
			}
		}
	}
	return segs, nil
}

// Append submits cmd and blocks until it is committed, returning its log
// entry. At most one Append per node at a time (sequential nodes).
func (l *Log) Append(cmd []byte) (Entry, error) {
	l.st.Proposals = append(l.st.Proposals, append([]byte(nil), cmd...))
	mySeq := len(l.st.Proposals) // 1-based
	if err := l.publish(); err != nil {
		return Entry{}, err
	}
	for {
		// Extend the committed prefix by one slot at a time until our
		// command lands.
		e, err := l.commitSlot(len(l.committed))
		if err != nil {
			return Entry{}, err
		}
		if e.Node == l.id && e.Seq == mySeq {
			return e, nil
		}
	}
}

// CatchUp extends the local committed prefix using published decisions
// only (no consensus driving); readers call it before Committed.
func (l *Log) CatchUp() error {
	segs, err := l.scan()
	if err != nil {
		return err
	}
	for {
		slot := len(l.committed)
		cand, ok := l.decisions[slot]
		if !ok {
			return nil
		}
		if _, err := l.applyChecked(slot, cand, segs); err != nil {
			return err
		}
	}
}

// Sync actively helps: it keeps committing slots until no visible
// proposal is left pending. Nodes that have finished their own appends
// must keep calling Sync while others are appending — consensus instances
// need n-f participants, so helping is what makes slow appenders' Appends
// terminate (the replicated-log analogue of the snapshot literature's
// helping mechanisms).
func (l *Log) Sync() error {
	for {
		if err := l.CatchUp(); err != nil {
			return err
		}
		segs, err := l.scan()
		if err != nil {
			return err
		}
		pending := false
		for c := range segs {
			if segs[c] != nil && len(segs[c].Proposals) > l.pendingIndex(c) {
				pending = true
				break
			}
		}
		if !pending {
			return nil
		}
		if _, err := l.commitSlot(len(l.committed)); err != nil {
			return err
		}
	}
}

// Committed returns the locally known committed prefix.
func (l *Log) Committed() []Entry { return append([]Entry(nil), l.committed...) }

// commitSlot decides slot (adopting a published decision if one exists)
// and appends it to the committed prefix.
func (l *Log) commitSlot(slot int) (Entry, error) {
	for sweep := 0; sweep < l.cfg.MaxSweeps; sweep++ {
		segs, err := l.scan()
		if err != nil {
			return Entry{}, err
		}
		if cand, ok := l.decisions[slot]; ok {
			return l.applyChecked(slot, cand, segs)
		}
		for cand := 0; cand < l.cfg.N; cand++ {
			input := 0
			if segs[cand] != nil && len(segs[cand].Proposals) > l.pendingIndex(cand) {
				input = 1
			}
			key := fmt.Sprintf("%d/%d/%d", slot, sweep, cand)
			win, err := l.binaryConsensus(key, input, slot)
			if err != nil {
				return Entry{}, err
			}
			if dec, ok := l.decisions[slot]; ok {
				// Someone published the slot's decision mid-sweep.
				segs, err := l.scan()
				if err != nil {
					return Entry{}, err
				}
				return l.applyChecked(slot, dec, segs)
			}
			if win == 1 {
				l.st.Decisions[slot] = cand
				l.decisions[slot] = cand
				if err := l.publish(); err != nil {
					return Entry{}, err
				}
				segs, err := l.scan()
				if err != nil {
					return Entry{}, err
				}
				return l.applyChecked(slot, cand, segs)
			}
			// win == 0: next candidate.
			segs, err = l.scan()
			if err != nil {
				return Entry{}, err
			}
		}
		// Full sweep decided nothing; proposals have propagated further
		// by now — sweep again with fresh instances.
	}
	return Entry{}, errors.New("rsm: sweep budget exceeded")
}

// pendingIndex returns how many of cand's proposals are already committed
// in the local prefix (the index of its next pending proposal).
func (l *Log) pendingIndex(cand int) int {
	k := 0
	for _, e := range l.committed {
		if e.Node == cand {
			k++
		}
	}
	return k
}

func (l *Log) applyChecked(slot, cand int, segs []*state) (Entry, error) {
	if segs[cand] == nil || len(segs[cand].Proposals) <= l.pendingIndex(cand) {
		// The winner's proposal must be visible: consensus validity
		// means someone saw it, and our scan follows the deciding scan
		// in the containment order... but our *local* scan may still
		// lag. Rescan until visible.
		for {
			var err error
			segs, err = l.scan()
			if err != nil {
				return Entry{}, err
			}
			if segs[cand] != nil && len(segs[cand].Proposals) > l.pendingIndex(cand) {
				break
			}
		}
	}
	return l.apply(slot, cand, segs), nil
}

func (l *Log) apply(slot, cand int, segs []*state) Entry {
	idx := l.pendingIndex(cand)
	e := Entry{
		Slot: slot,
		Node: cand,
		Seq:  idx + 1,
		Cmd:  append([]byte(nil), segs[cand].Proposals[idx]...),
	}
	l.committed = append(l.committed, e)
	// The slot's consensus instances are settled; drop their phase
	// records so segments stay proportional to in-flight slots.
	prefix := fmt.Sprintf("%d/", slot)
	for key := range l.st.Phases {
		if strings.HasPrefix(key, prefix) {
			delete(l.st.Phases, key)
		}
	}
	return e
}

// binaryConsensus runs one consensus.Instance whose records live under key
// in every node's segment, so unboundedly many instances share one
// snapshot object. A published slot decision stops it: callers check
// l.decisions after each call.
func (l *Log) binaryConsensus(key string, bit, slot int) (int, error) {
	in := consensus.Instance{N: l.cfg.N, F: l.cfg.F, Rand: l.cfg.Rand,
		Publish: func(mine []consensus.Record) error {
			l.st.Phases[key] = mine
			return l.publish()
		},
		Collect: func() ([][]consensus.Record, bool, error) {
			segs, err := l.scan()
			if err != nil {
				return nil, false, err
			}
			if _, ok := l.decisions[slot]; ok {
				return nil, true, nil
			}
			recs := make([][]consensus.Record, len(segs))
			for i, s := range segs {
				if s != nil {
					recs[i] = s.Phases[key]
				}
			}
			return recs, false, nil
		},
	}
	return in.Run(bit, math.MaxInt)
}
