package wire_test

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"testing"

	"mpsnap/internal/wire"
)

// TestFrameBuffered: the next frame counts as buffered exactly when its
// header and its whole payload already sit in the reader's buffer.
func TestFrameBuffered(t *testing.T) {
	small, _ := wire.AppendFrame(nil, []byte("abc"), 0)
	large, _ := wire.AppendFrame(nil, make([]byte, 100), 0)
	stream := append(append(append([]byte(nil), small...), small...), large...)
	r := bufio.NewReaderSize(bytes.NewReader(stream), 32) // holds both small frames, not the large one
	if wire.FrameBuffered(r) {
		t.Fatal("a frame counts as buffered before anything was read")
	}
	for i, want := range []bool{true, false, false} {
		if _, err := wire.ReadFrame(r, nil, 0); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got := wire.FrameBuffered(r); got != want {
			t.Errorf("after frame %d: FrameBuffered = %v, want %v", i, got, want)
		}
	}
}

// TestReadFrameErrorClasses: ReadFrame classifies every stream — a clean
// io.EOF, a cut header or payload, a bad version, an oversized length —
// and returns the payload of a whole frame.
func TestReadFrameErrorClasses(t *testing.T) {
	good, _ := wire.AppendFrame(nil, []byte("abc"), 0)
	big, _ := wire.AppendFrame(nil, make([]byte, 20), 0)
	cases := []struct {
		name   string
		stream []byte
		want   error // nil: the payload "abc"
	}{
		{"whole frame", good, nil},
		{"empty stream", nil, io.EOF},
		{"version only", good[:1], wire.ErrShortFrame},
		{"header cut short", good[:3], wire.ErrShortFrame},
		{"payload cut short", good[:len(good)-1], wire.ErrShortFrame},
		{"bad version", append([]byte{wire.Version + 1}, good[1:]...), wire.ErrBadVersion},
		{"over the cap", big, wire.ErrFrameTooLarge},
	}
	for _, c := range cases {
		payload, err := wire.ReadFrame(bufio.NewReader(bytes.NewReader(c.stream)), nil, 10)
		switch {
		case c.want == nil && (err != nil || string(payload) != "abc"):
			t.Errorf("%s: got %q, %v; want \"abc\"", c.name, payload, err)
		case c.want == io.EOF && err != io.EOF:
			t.Errorf("%s: got %v, want a bare io.EOF", c.name, err)
		case c.want != nil && !errors.Is(err, c.want):
			t.Errorf("%s: got %v, want %v", c.name, err, c.want)
		}
	}
}

// TestReadFrameFromBufferedReaderAllocatesNothing: with a reused payload
// buffer, a frame read from a *bufio.Reader — the transport's case — costs
// no allocation; the header no longer escapes.
func TestReadFrameFromBufferedReaderAllocatesNothing(t *testing.T) {
	frame, _ := wire.AppendFrame(nil, []byte("payload"), 0)
	src := bytes.NewReader(nil)
	r := bufio.NewReader(src)
	buf := make([]byte, 0, 64)
	allocs := testing.AllocsPerRun(1000, func() {
		src.Reset(frame)
		r.Reset(src)
		var err error
		if buf, err = wire.ReadFrame(r, buf, 0); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("ReadFrame from a *bufio.Reader allocates %v times per frame, want 0", allocs)
	}
}

// BenchmarkReadFrame reads one 64-byte frame per op into a reused buffer,
// from a *bufio.Reader as the TCP transport reads (no allocation).
func BenchmarkReadFrame(b *testing.B) {
	frame, _ := wire.AppendFrame(nil, make([]byte, 64), 0)
	src := bytes.NewReader(nil)
	r := bufio.NewReader(src)
	buf := make([]byte, 0, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src.Reset(frame)
		r.Reset(src)
		var err error
		if buf, err = wire.ReadFrame(r, buf, 0); err != nil {
			b.Fatal(err)
		}
	}
}
