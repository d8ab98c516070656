package wire

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Buffer is the zero-alloc append-side of the codec: a growable byte
// slice with typed append methods. A Buffer is reused across messages by
// calling Reset; steady-state encoding performs no allocations once the
// underlying slice has grown to the working-set size.
//
// All integer encodings are minimal varints (unsigned, or zigzag for
// signed), so a given value has exactly one encoding and encoders are
// deterministic by construction.
type Buffer struct {
	buf []byte
}

// Reset empties the buffer, keeping its capacity.
func (b *Buffer) Reset() { b.buf = b.buf[:0] }

// Bytes returns the encoded bytes. The slice aliases the buffer and is
// invalidated by the next Put or Reset.
func (b *Buffer) Bytes() []byte { return b.buf }

// Len returns the number of encoded bytes.
func (b *Buffer) Len() int { return len(b.buf) }

// Grow makes room for n more bytes, so the Puts that follow an encoder's
// size estimate append without reallocating.
func (b *Buffer) Grow(n int) {
	if cap(b.buf)-len(b.buf) < n {
		b.buf = append(make([]byte, 0, len(b.buf)+n), b.buf...)
	}
}

// PutByte appends one raw byte.
func (b *Buffer) PutByte(v byte) { b.buf = append(b.buf, v) }

// PutUvarint appends an unsigned varint.
func (b *Buffer) PutUvarint(v uint64) { b.buf = binary.AppendUvarint(b.buf, v) }

// PutVarint appends a zigzag-encoded signed varint.
func (b *Buffer) PutVarint(v int64) { b.buf = binary.AppendVarint(b.buf, v) }

// PutInt appends an int as a signed varint.
func (b *Buffer) PutInt(v int) { b.PutVarint(int64(v)) }

// PutBool appends a bool as one byte (0 or 1).
func (b *Buffer) PutBool(v bool) {
	if v {
		b.PutByte(1)
	} else {
		b.PutByte(0)
	}
}

// PutUint64 appends a fixed-width big-endian uint64 (used for float
// bits, where varint encoding would be counterproductive).
func (b *Buffer) PutUint64(v uint64) { b.buf = binary.BigEndian.AppendUint64(b.buf, v) }

// PutFloat64 appends a float64 as its IEEE-754 bits, big-endian.
func (b *Buffer) PutFloat64(v float64) { b.PutUint64(math.Float64bits(v)) }

// PutBytes appends a length-prefixed byte string. A nil slice and an
// empty slice encode identically (length 0); decoders return nil.
func (b *Buffer) PutBytes(v []byte) {
	b.PutUvarint(uint64(len(v)))
	b.buf = append(b.buf, v...)
}

// PutString appends a length-prefixed string.
func (b *Buffer) PutString(v string) {
	b.PutUvarint(uint64(len(v)))
	b.buf = append(b.buf, v...)
}

// Decoder is the decode-side cursor over one message payload. Errors
// latch: after the first malformed read every subsequent read returns the
// zero value and Err reports the first failure, so decode functions can
// read all fields and check Err once.
//
// Decoders never trust embedded lengths beyond the remaining input: a
// corrupt or malicious length prefix cannot trigger an allocation larger
// than the buffer actually in hand.
type Decoder struct {
	buf []byte
	off int
	err error
}

// NewDecoder returns a decoder over b. The decoder never mutates b, but
// byte-string reads copy out of it, so b may be reused afterwards.
func NewDecoder(b []byte) *Decoder { return &Decoder{buf: b} }

// Err returns the first decode error, or nil.
func (d *Decoder) Err() error { return d.err }

// Remaining returns the number of unread bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

func (d *Decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("wire: "+format, args...)
	}
}

// Byte reads one raw byte.
func (d *Decoder) Byte() byte {
	if d.err != nil {
		return 0
	}
	if d.off >= len(d.buf) {
		d.fail("truncated input (byte at offset %d)", d.off)
		return 0
	}
	v := d.buf[d.off]
	d.off++
	return v
}

// Uvarint reads an unsigned varint.
func (d *Decoder) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.fail("malformed uvarint at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

// Varint reads a zigzag-encoded signed varint.
func (d *Decoder) Varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf[d.off:])
	if n <= 0 {
		d.fail("malformed varint at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

// Int reads a signed varint as an int.
func (d *Decoder) Int() int { return int(d.Varint()) }

// Bool reads a bool; any byte other than 0 or 1 is an error (keeps the
// encoding canonical).
func (d *Decoder) Bool() bool {
	v := d.Byte()
	if v > 1 {
		d.fail("malformed bool byte %d", v)
		return false
	}
	return v == 1
}

// Uint64 reads a fixed-width big-endian uint64.
func (d *Decoder) Uint64() uint64 {
	if d.err != nil {
		return 0
	}
	if d.Remaining() < 8 {
		d.fail("truncated input (uint64 at offset %d)", d.off)
		return 0
	}
	v := binary.BigEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v
}

// Float64 reads an IEEE-754 big-endian float64.
func (d *Decoder) Float64() float64 { return math.Float64frombits(d.Uint64()) }

// Bytes reads a length-prefixed byte string into a fresh slice (never
// aliasing the input, which callers typically reuse). Length 0 returns
// nil.
func (d *Decoder) Bytes() []byte {
	n := d.Uvarint()
	if d.err != nil {
		return nil
	}
	if n > uint64(d.Remaining()) {
		d.fail("byte string length %d exceeds %d remaining bytes", n, d.Remaining())
		return nil
	}
	if n == 0 {
		return nil
	}
	v := make([]byte, n)
	copy(v, d.buf[d.off:])
	d.off += int(n)
	return v
}

// String reads a length-prefixed string.
func (d *Decoder) String() string { return string(d.RawString()) }

// RawString reads a length-prefixed string and returns its bytes without
// copying them: the slice aliases the input, so it is valid only until the
// caller's buffer is reused. A caller that keeps the string copies it, or
// looks it up among strings it already holds (a map index keyed by
// string(b) does not allocate).
func (d *Decoder) RawString() []byte {
	n := d.Uvarint()
	if d.err != nil {
		return nil
	}
	if n > uint64(d.Remaining()) {
		d.fail("string length %d exceeds %d remaining bytes", n, d.Remaining())
		return nil
	}
	v := d.buf[d.off : d.off+int(n)]
	d.off += int(n)
	return v
}

// Count reads a collection length and validates it against the remaining
// input, assuming each element occupies at least elemMin bytes. This
// bounds the allocation a corrupt count can cause to the input actually
// present.
func (d *Decoder) Count(elemMin int) int {
	n := d.Uvarint()
	if d.err != nil {
		return 0
	}
	if elemMin < 1 {
		elemMin = 1
	}
	if n > uint64(d.Remaining()/elemMin) {
		d.fail("collection count %d exceeds remaining input (%d bytes, >=%d per element)",
			n, d.Remaining(), elemMin)
		return 0
	}
	return int(n)
}
