package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"mpsnap/internal/rt"
)

// Framing errors. Transports treat any of them as a fatal condition for
// the connection that produced the bytes (close it, surface the error);
// the chaos harness counts them as corrupt frames.
var (
	// ErrFrameTooLarge reports a frame whose payload exceeds the cap —
	// on decode, before any allocation is attempted.
	ErrFrameTooLarge = errors.New("wire: frame exceeds max frame size")
	// ErrBadVersion reports a frame with an unknown version byte.
	ErrBadVersion = errors.New("wire: unknown frame version")
	// ErrShortFrame reports a frame truncated below its declared length.
	ErrShortFrame = errors.New("wire: truncated frame")
)

// maxOrDefault resolves the configurable cap.
func maxOrDefault(max int) int {
	if max <= 0 {
		return DefaultMaxFrame
	}
	return max
}

// AppendFrame appends a frame (header + payload) to dst and returns the
// extended slice. The cap is enforced on the encode side too: a payload
// over max is refused here, not discovered by the peer.
func AppendFrame(dst, payload []byte, max int) ([]byte, error) {
	max = maxOrDefault(max)
	if len(payload) > max {
		return dst, fmt.Errorf("%w: %d > %d bytes (encode)", ErrFrameTooLarge, len(payload), max)
	}
	dst = append(dst, Version)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(payload)))
	return append(dst, payload...), nil
}

// ReadFrame reads one frame from r and returns its payload. buf, if large
// enough, is reused for the payload (steady-state framed reads allocate
// nothing); pass nil to always allocate. io.EOF is returned untouched
// when the stream ends cleanly at a frame boundary, so callers can
// distinguish a closed peer from a corrupt one. The header is read in
// place from r's buffer, so a frame into a large enough buf costs no
// allocation at all.
func ReadFrame(r *bufio.Reader, buf []byte, max int) ([]byte, error) {
	max = maxOrDefault(max)
	n, err := readHeader(r)
	if err != nil {
		return nil, err
	}
	if n > uint32(max) {
		return nil, fmt.Errorf("%w: %d > %d bytes (decode)", ErrFrameTooLarge, n, max)
	}
	if uint32(cap(buf)) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, fmt.Errorf("%w: payload cut short: %w", ErrShortFrame, err)
	}
	return buf, nil
}

// readHeader reads a frame header in place from r's buffer and returns
// its payload length.
func readHeader(r *bufio.Reader) (uint32, error) {
	v, err := r.ReadByte()
	if err != nil {
		return 0, err // io.EOF: clean close before a frame
	}
	if v != Version {
		return 0, fmt.Errorf("%w: %d (want %d)", ErrBadVersion, v, Version)
	}
	b, err := r.Peek(HeaderLen - 1)
	if err != nil {
		if err == io.EOF && len(b) > 0 {
			err = io.ErrUnexpectedEOF // the stream ended inside the header
		}
		return 0, fmt.Errorf("%w: header cut short: %w", ErrShortFrame, err)
	}
	n := binary.BigEndian.Uint32(b)
	_, _ = r.Discard(HeaderLen - 1) // cannot fail: Peek returned the bytes
	return n, nil
}

// FrameBuffered reports whether r already holds the whole next frame, so
// that ReadFrame would return it without reading the underlying stream. It
// looks at the length only: a malformed header is ReadFrame's to reject.
func FrameBuffered(r *bufio.Reader) bool {
	n := r.Buffered()
	if n < HeaderLen {
		return false
	}
	hdr, _ := r.Peek(HeaderLen)
	return uint64(n-HeaderLen) >= uint64(binary.BigEndian.Uint32(hdr[1:]))
}

// parseFrame parses one frame from the front of b, returning its payload
// (aliasing b) and the bytes after the frame.
func parseFrame(b []byte, max int) (payload, rest []byte, err error) {
	max = maxOrDefault(max)
	if len(b) < HeaderLen {
		return nil, nil, fmt.Errorf("%w: %d header bytes of %d", ErrShortFrame, len(b), HeaderLen)
	}
	if b[0] != Version {
		return nil, nil, fmt.Errorf("%w: %d (want %d)", ErrBadVersion, b[0], Version)
	}
	n := binary.BigEndian.Uint32(b[1:])
	if n > uint32(max) {
		return nil, nil, fmt.Errorf("%w: %d > %d bytes (decode)", ErrFrameTooLarge, n, max)
	}
	if uint64(len(b)-HeaderLen) < uint64(n) {
		return nil, nil, fmt.Errorf("%w: %d payload bytes of %d", ErrShortFrame, len(b)-HeaderLen, n)
	}
	return b[HeaderLen : HeaderLen+int(n)], b[HeaderLen+int(n):], nil
}

// MarshalFrame encodes msg as one complete frame (the unit the chaos
// harness corrupts and a replay log would store).
func MarshalFrame(msg rt.Message, max int) ([]byte, error) {
	var b Buffer
	if err := AppendMessage(&b, msg); err != nil {
		return nil, err
	}
	return AppendFrame(nil, b.Bytes(), max)
}

// UnmarshalFrame parses one complete frame and decodes its message,
// rejecting trailing bytes after the frame.
func UnmarshalFrame(b []byte, max int) (rt.Message, error) {
	payload, rest, err := parseFrame(b, max)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d after frame", ErrTrailingBytes, len(rest))
	}
	return Unmarshal(payload)
}
