package wire_test

import (
	"bufio"
	"bytes"
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
