// Package segment is the layer every application of the snapshot object
// runs on (DESIGN §1 "Applications"): the one declaration of the object's
// client contract, typed codecs for what a node keeps in its segment, and
// Own, a node's handle on its own segment.
//
// The applications (crdt, statemachine, assettransfer, detect, approx,
// consensus, rsm) differ only in what a segment holds and how a scan is
// folded; writing the segment, decoding a scan and trusting a node's own
// completed write over a lagging snapshot are done here once.
package segment

import (
	"fmt"

	"mpsnap/internal/wire"
)

// Object is the client face of a snapshot object bound to one node. Every
// protocol in this repository implements it (EQ-ASO, SSO, Byz-ASO, the
// challengers and all baselines); mpsnap.Object, svc.Object and
// harness.Object are aliases of it.
type Object interface {
	// Update writes payload to this node's segment.
	Update(payload []byte) error
	// Scan returns one entry per segment; nil marks ⊥.
	Scan() ([][]byte, error)
}

// Codec is the wire form of a segment value: Put appends v, Get reads one
// back (a malformed input latches the decoder's error).
type Codec[T any] struct {
	Put func(b *wire.Buffer, v T)
	Get func(d *wire.Decoder) T
}

// Codecs of the primitive segment values.
var (
	Uvarint = Codec[uint64]{Put: (*wire.Buffer).PutUvarint, Get: (*wire.Decoder).Uvarint}
	String  = Codec[string]{Put: (*wire.Buffer).PutString, Get: (*wire.Decoder).String}
	Bytes   = Codec[[]byte]{Put: (*wire.Buffer).PutBytes, Get: (*wire.Decoder).Bytes}
	Float64 = Codec[float64]{Put: (*wire.Buffer).PutFloat64, Get: (*wire.Decoder).Float64}
)

// List is the codec of a []T: a count, then each element. elemMin is the
// fewest bytes one element encodes to, which bounds the count a corrupt
// segment can claim; an empty list decodes as nil.
func List[T any](elem Codec[T], elemMin int) Codec[[]T] {
	return Codec[[]T]{
		Put: func(b *wire.Buffer, vs []T) {
			b.PutUvarint(uint64(len(vs)))
			for _, v := range vs {
				elem.Put(b, v)
			}
		},
		Get: func(d *wire.Decoder) []T {
			n := d.Count(elemMin)
			if n == 0 {
				return nil
			}
			vs := make([]T, 0, n)
			for i := 0; i < n && d.Err() == nil; i++ {
				vs = append(vs, elem.Get(d))
			}
			return vs
		},
	}
}

// Own is a node's handle on its own segment of obj, holding values of
// type T. Like the object it wraps it is driven by the node's one client
// thread.
type Own[T any] struct {
	obj   Object
	id    int
	pkg   string
	codec Codec[T]

	last T
	put  bool
}

// NewOwn binds node id's segment of obj. id < 0 means the caller has no
// node id: Scan then substitutes nothing. pkg prefixes decode errors.
func NewOwn[T any](obj Object, id int, pkg string, codec Codec[T]) *Own[T] {
	return &Own[T]{obj: obj, id: id, pkg: pkg, codec: codec}
}

// Put encodes v and writes it to the segment (one UPDATE). v becomes Last
// even if the update fails: a failed update may still take effect, so the
// node keeps counting it as written.
func (o *Own[T]) Put(v T) error {
	o.last, o.put = v, true
	var b wire.Buffer
	o.codec.Put(&b, v)
	return o.obj.Update(b.Bytes())
}

// Last returns the value last put (T's zero value before the first Put).
func (o *Own[T]) Last() T { return o.last }

// Scan reads every segment (one SCAN) and decodes it: nil for ⊥, an error
// naming the segment for a malformed one. The node's own entry is its
// last Put, which a snapshot can lag but never lead.
func (o *Own[T]) Scan() ([]*T, error) {
	snap, err := o.obj.Scan()
	if err != nil {
		return nil, err
	}
	out := make([]*T, len(snap))
	for i, seg := range snap {
		if seg == nil {
			continue
		}
		d := wire.NewDecoder(seg)
		v := o.codec.Get(d)
		if err := d.Err(); err != nil {
			return nil, fmt.Errorf("%s: segment %d: %w", o.pkg, i, err)
		}
		out[i] = &v
	}
	if o.put && o.id >= 0 && o.id < len(out) {
		last := o.last
		out[o.id] = &last
	}
	return out, nil
}
