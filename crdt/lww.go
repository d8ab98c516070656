package crdt

import (
	"mpsnap/internal/segment"
	"mpsnap/internal/wire"
)

// lwwState is an LWW-register segment: the owner's latest write with its
// logical timestamp.
type lwwState struct {
	Clock int64
	Val   []byte
	Unset bool
}

var lwwCodec = segment.Codec[lwwState]{
	Put: func(b *wire.Buffer, st lwwState) { b.PutVarint(st.Clock); b.PutBytes(st.Val); b.PutBool(st.Unset) },
	Get: func(d *wire.Decoder) lwwState { return lwwState{Clock: d.Varint(), Val: d.Bytes(), Unset: d.Bool()} },
}

// LWWRegister is a last-writer-wins register: each node's segment holds
// its most recent write stamped with a logical clock; reads take the
// maximum (clock, node) pair over a SCAN. Over an atomic snapshot the
// register is linearizable: a Set scans first, so its stamp dominates
// everything that completed before it.
type LWWRegister struct{ seg *segment.Own[lwwState] }

// NewLWWRegister binds a register to the node's snapshot object; id must
// be the node's ID.
func NewLWWRegister(obj segment.Object, id int) *LWWRegister {
	return &LWWRegister{segment.NewOwn(obj, id, "crdt", lwwCodec)}
}

// Set writes val (one SCAN to advance the clock + one UPDATE). The scan
// includes this node's own last write, so the new clock exceeds it.
func (r *LWWRegister) Set(val []byte) error {
	_, maxClock, _, err := r.read()
	if err != nil {
		return err
	}
	return r.seg.Put(lwwState{Clock: maxClock + 1, Val: append([]byte(nil), val...)})
}

// Get reads the register (one SCAN); ok is false while unwritten.
func (r *LWWRegister) Get() (val []byte, ok bool, err error) {
	val, _, ok, err = r.read()
	return val, ok, err
}

func (r *LWWRegister) read() (val []byte, maxClock int64, ok bool, err error) {
	segs, err := r.seg.Scan()
	if err != nil {
		return nil, 0, false, err
	}
	// Ties go to the highest node ID.
	for _, st := range segs {
		if st == nil || st.Unset {
			continue
		}
		if st.Clock >= maxClock {
			maxClock, val, ok = st.Clock, st.Val, true
		}
	}
	return val, maxClock, ok, nil
}
