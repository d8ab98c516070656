// Package detect implements stable-property detection over an atomic
// snapshot object — one of the paper's motivating applications ("ASO can
// be used for ... detecting stable properties to debug distributed
// programs", Section I).
//
// Each node continuously publishes its local state (active/passive flag
// and message counters of the monitored computation) into its segment of
// the snapshot object (obj is an mpsnap.Object, and it must be atomic: SSO
// scans are not consistent global states). Because a SCAN of an atomic
// snapshot object is a *consistent* global state, a stable predicate (one
// that never reverts from true to false, like termination or deadlock)
// that holds in a scanned state holds forever after — a single scan
// replaces the double-collect dance of classical detection algorithms.
//
// The canonical instance is termination detection: the computation has
// terminated exactly when every node is passive and every sent message
// has been received.
package detect

import (
	"fmt"

	"mpsnap/internal/segment"
	"mpsnap/internal/wire"
)

// Status is one node's published state of the monitored computation.
type Status struct {
	// Active reports whether the node is still computing.
	Active bool
	// Sent and Received count the computation's messages at this node.
	Sent, Received int64
}

var statusCodec = segment.Codec[Status]{
	Put: func(b *wire.Buffer, s Status) { b.PutBool(s.Active); b.PutVarint(s.Sent); b.PutVarint(s.Received) },
	Get: func(d *wire.Decoder) Status { return Status{Active: d.Bool(), Sent: d.Varint(), Received: d.Varint()} },
}

// Monitor is one node's handle: it publishes the local Status and
// evaluates global predicates.
type Monitor struct{ seg *segment.Own[Status] }

// New binds node id's monitor to its snapshot object.
func New(obj segment.Object, id int) *Monitor {
	return &Monitor{segment.NewOwn(obj, id, "detect", statusCodec)}
}

// Publish applies mut to a copy of the local status and publishes it (one
// UPDATE). Typical transitions: become active and count a receive; count
// sends; become passive. A status with a negative counter is rejected
// and leaves the local status as it was.
func (m *Monitor) Publish(mut func(*Status)) error {
	st := m.seg.Last()
	mut(&st)
	if st.Sent < 0 || st.Received < 0 {
		return fmt.Errorf("detect: negative counters %+v", st)
	}
	return m.seg.Put(st)
}

// Local returns the local (published) status.
func (m *Monitor) Local() Status { return m.seg.Last() }

// Snapshot scans and decodes every node's status. Nodes that never
// published are zero-valued (passive, no traffic).
func (m *Monitor) Snapshot() ([]Status, error) {
	segs, err := m.seg.Scan()
	if err != nil {
		return nil, err
	}
	out := make([]Status, len(segs))
	for i, st := range segs {
		if st != nil {
			out[i] = *st
		}
	}
	return out, nil
}

// Terminated is the classical termination predicate over a consistent
// state: everyone passive and no message in flight. It is stable: once
// true of the computation it stays true.
func Terminated(statuses []Status) bool {
	var sent, received int64
	for _, s := range statuses {
		if s.Active {
			return false
		}
		sent += s.Sent
		received += s.Received
	}
	return sent == received
}

// CheckTermination scans once and evaluates Terminated (one SCAN).
func (m *Monitor) CheckTermination() (bool, error) {
	return m.Check(Terminated)
}

// Check scans once and evaluates an arbitrary predicate over the
// consistent state. Soundness for detection requires pred to be stable.
func (m *Monitor) Check(pred func([]Status) bool) (bool, error) {
	statuses, err := m.Snapshot()
	if err != nil {
		return false, err
	}
	return pred(statuses), nil
}
