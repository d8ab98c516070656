package svc

import (
	"testing"
	"unsafe"
)

// TestRequestKeepsItsSizeClass: every queued operation allocates one
// request; with the then hook it fills the 112-byte malloc class exactly,
// and one more word would move every request to the 128-byte class.
func TestRequestKeepsItsSizeClass(t *testing.T) {
	if got := unsafe.Sizeof(request{}); got > 112 {
		t.Errorf("request is %d bytes, want <= 112", got)
	}
}
