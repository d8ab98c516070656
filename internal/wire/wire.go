// Package wire is the typed codec layer every protocol message crosses
// on its way to a transport: a central registry mapping each concrete
// rt.Message type to a stable numeric tag with hand-written Encode/Decode
// functions, plus a length-prefixed, version-byte framed wire format with
// a configurable maximum frame size.
//
// Compared to the reflection-based encoding/gob layer it replaces, the
// codec is:
//
//   - deterministic: a message value has exactly one encoding (minimal
//     varints, fixed field order, no type descriptors), so simulator runs
//     stay byte-identical per seed and frames can later be hashed,
//     deduplicated, or replayed byte-exactly;
//   - fast and allocation-free on the encode path: a reused Buffer and
//     hand-written field writes, with no reflection;
//   - hostile-input safe: decoders validate every length against the
//     bytes actually present, frames are capped on both encode and
//     decode, and arbitrary input can never panic — malformed frames
//     surface as errors for the transport (close the connection) or the
//     chaos harness (count a corrupt frame) to handle.
//
// # Frame layout
//
//	offset 0      version byte (Version)
//	offset 1..4   payload length, uint32 big-endian (<= max frame)
//	offset 5..    payload
//
// # Payload layout
//
//	uvarint tag   the registered message tag
//	body          the message's registered encoding, to end of payload
//
// Tag assignments are listed in DESIGN.md (wire format section) and next
// to each message table in ALGORITHMS.md. Tags are forever: a message
// type may evolve only by appending optional fields its decoder defaults
// when absent, or by registering a new tag; tags are never reused.
package wire

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"

	"mpsnap/internal/rt"
)

// Version is the current wire-format version byte. A frame with any
// other version is rejected (decode error), which is what makes future
// format evolution detectable instead of silently misparsed.
const Version byte = 1

// HeaderLen is the frame header size: version byte + uint32 length.
const HeaderLen = 5

// DefaultMaxFrame is the frame cap applied when a transport or tool
// passes max <= 0: large enough for any view a realistic workload
// produces, small enough that a corrupt length prefix cannot cause an
// unbounded allocation.
const DefaultMaxFrame = 4 << 20

// TestTagBase is the start of the tag range reserved for test-local
// message types; production packages must register below it.
const TestTagBase uint16 = 0xF000

// Registry errors.
var (
	// ErrUnknownTag reports a payload whose tag has no registered codec.
	ErrUnknownTag = errors.New("wire: unknown message tag")
	// ErrNotRegistered reports an encode of an unregistered message type.
	ErrNotRegistered = errors.New("wire: message type not registered")
	// ErrTrailingBytes reports a payload with bytes left over after the
	// message body — every byte of a frame must be accounted for.
	ErrTrailingBytes = errors.New("wire: trailing bytes after message body")
)

// Codec describes one registered message type.
type Codec struct {
	// Tag is the stable numeric identity of the type on the wire.
	Tag uint16
	// Proto is a zero value of the concrete message type.
	Proto rt.Message
	// Encode appends the message body (everything after the tag) to b.
	// It is called only with messages of Proto's dynamic type.
	Encode func(b *Buffer, m rt.Message)
	// Decode parses a message body. It must consume exactly the bytes
	// Encode produced and must never panic on malformed input (the
	// Decoder's latched error discipline gives this for free).
	Decode func(d *Decoder) (rt.Message, error)
	// Gen builds a pseudo-random instance for fuzzing and benchmarks.
	Gen func(rng *rand.Rand) rt.Message
	// Composite marks codecs that nest other registered messages
	// (mux.Envelope); GenLeaf skips them to bound generator recursion.
	Composite bool
	// Encodable optionally reports whether this particular value can be
	// encoded. Composite codecs use it to check that their nested content
	// is registered too; nil means any value of the type encodes.
	Encodable func(m rt.Message) bool
}

var (
	regMu     sync.RWMutex
	byTag     = make(map[uint16]*Codec)
	byType    = make(map[reflect.Type]*Codec)
	tagByType = make(map[reflect.Type]uint16)
)

// Register installs a codec. It panics on a duplicate tag or type and on
// missing fields: registration happens in package init blocks, where a
// collision is always a programming error that must not reach the wire.
func Register(c Codec) {
	if c.Proto == nil || c.Encode == nil || c.Decode == nil {
		panic(fmt.Sprintf("wire: incomplete codec registration for tag %d", c.Tag))
	}
	t := reflect.TypeOf(c.Proto)
	regMu.Lock()
	defer regMu.Unlock()
	if prev, dup := byTag[c.Tag]; dup {
		panic(fmt.Sprintf("wire: tag %d registered twice (%T and %T)", c.Tag, prev.Proto, c.Proto))
	}
	if prevTag, dup := tagByType[t]; dup {
		panic(fmt.Sprintf("wire: type %T registered twice (tags %d and %d)", c.Proto, prevTag, c.Tag))
	}
	cc := c
	byTag[c.Tag] = &cc
	byType[t] = &cc
	tagByType[t] = c.Tag
}

// Lookup returns the codec registered for tag.
func Lookup(tag uint16) (*Codec, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	c, ok := byTag[tag]
	return c, ok
}

// codecFor returns the codec registered for msg's concrete type.
func codecFor(msg rt.Message) (*Codec, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	c, ok := byType[reflect.TypeOf(msg)]
	return c, ok
}

// Marshalable reports whether msg can actually be encoded: its concrete
// type is registered and, for composite messages, so is everything it
// nests. Copy-through layers use it to let test-local unregistered
// payloads pass through untouched instead of failing mid-send.
func Marshalable(msg rt.Message) bool {
	c, ok := codecFor(msg)
	if !ok {
		return false
	}
	return c.Encodable == nil || c.Encodable(msg)
}

// Registered returns every registered codec, sorted by tag (tooling,
// fuzzing, and the codec benchmarks iterate it).
func Registered() []Codec {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]Codec, 0, len(byTag))
	for _, c := range byTag {
		out = append(out, *c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tag < out[j].Tag })
	return out
}

// GenLeaf builds a pseudo-random instance of a random registered
// non-composite type (composite codecs use it to fill their nested
// message without unbounded recursion). It panics if no generator-backed
// leaf codec is registered, which cannot happen once any algorithm
// package is linked in.
func GenLeaf(rng *rand.Rand) rt.Message {
	regMu.RLock()
	var leaves []*Codec
	for _, c := range byTag {
		if c.Gen != nil && !c.Composite {
			leaves = append(leaves, c)
		}
	}
	regMu.RUnlock()
	if len(leaves) == 0 {
		panic("wire: no leaf codecs with generators registered")
	}
	sort.Slice(leaves, func(i, j int) bool { return leaves[i].Tag < leaves[j].Tag })
	return leaves[rng.Intn(len(leaves))].Gen(rng)
}

// AppendMessage appends msg's payload encoding (tag + body) to b.
func AppendMessage(b *Buffer, msg rt.Message) error {
	c, ok := codecFor(msg)
	if !ok {
		return fmt.Errorf("%w: %T (kind %q)", ErrNotRegistered, msg, msg.Kind())
	}
	b.PutUvarint(uint64(c.Tag))
	c.Encode(b, msg)
	return nil
}

// DecodeMessageFrom parses one message (tag + body) from d, leaving the
// cursor after the body. Used directly by composite codecs; top-level
// payloads go through Unmarshal, which additionally rejects trailing
// bytes.
func DecodeMessageFrom(d *Decoder) (rt.Message, error) {
	tag := d.Uvarint()
	if err := d.Err(); err != nil {
		return nil, err
	}
	if tag > uint64(^uint16(0)) {
		return nil, fmt.Errorf("%w: %d", ErrUnknownTag, tag)
	}
	c, ok := Lookup(uint16(tag))
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrUnknownTag, tag)
	}
	msg, err := c.Decode(d)
	if err != nil {
		return nil, fmt.Errorf("wire: decode %T (tag %d): %w", c.Proto, c.Tag, err)
	}
	return msg, nil
}

// sizeBufs pools encode buffers for EncodedSize, so per-message byte
// accounting adds no steady-state allocations to backend hot paths.
var sizeBufs = sync.Pool{New: func() any { return new(Buffer) }}

// EncodedSize returns the encoded payload size (tag + body) of msg in
// bytes, or 0 when msg — or something it nests — is not marshalable.
// In-memory backends use it to attribute wire bytes to message kinds
// without actually shipping frames.
func EncodedSize(msg rt.Message) int {
	if !Marshalable(msg) {
		return 0
	}
	b := sizeBufs.Get().(*Buffer)
	b.Reset()
	n := 0
	if AppendMessage(b, msg) == nil {
		n = b.Len()
	}
	sizeBufs.Put(b)
	return n
}

// Marshal encodes msg as a standalone payload (tag + body).
func Marshal(msg rt.Message) ([]byte, error) {
	var b Buffer
	if err := AppendMessage(&b, msg); err != nil {
		return nil, err
	}
	return append([]byte(nil), b.Bytes()...), nil
}

// decoders pools the per-payload Decoder cursors Unmarshal uses, so the
// transport receive path does not allocate one per frame. Safe because
// decoded messages copy every byte-string field out of the input (see
// Decoder.Bytes) and so never alias the cursor or its buffer.
var decoders = sync.Pool{New: func() any { return new(Decoder) }}

// Unmarshal decodes a standalone payload, requiring every byte to be
// consumed.
func Unmarshal(p []byte) (rt.Message, error) {
	d := decoders.Get().(*Decoder)
	*d = Decoder{buf: p}
	msg, err := DecodeMessageFrom(d)
	rem := d.Remaining()
	*d = Decoder{} // drop the reference to p before pooling
	decoders.Put(d)
	if err != nil {
		return nil, err
	}
	if rem != 0 {
		return nil, fmt.Errorf("%w: %d of %d", ErrTrailingBytes, rem, len(p))
	}
	return msg, nil
}

// Roundtrip encodes msg and decodes the result, verifying that re-encoding
// the decoded message reproduces the same bytes. It is the engine of the
// simulator's copy-through mode: the returned message shares no memory
// with msg, and any encoder/decoder disagreement or non-canonical
// encoding surfaces as an error.
func Roundtrip(msg rt.Message) (rt.Message, error) {
	p, err := Marshal(msg)
	if err != nil {
		return nil, err
	}
	out, err := Unmarshal(p)
	if err != nil {
		return nil, fmt.Errorf("wire: roundtrip decode of %T: %w", msg, err)
	}
	p2, err := Marshal(out)
	if err != nil {
		return nil, fmt.Errorf("wire: roundtrip re-encode of %T: %w", msg, err)
	}
	if !bytes.Equal(p, p2) {
		return nil, fmt.Errorf("wire: non-canonical encoding of %T: re-encode differs (%d vs %d bytes)", msg, len(p), len(p2))
	}
	return out, nil
}
