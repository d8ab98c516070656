package chaos

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"

	"mpsnap/internal/history"
)

// setHistory records the run's history and its summary: the operation and
// pending counts and the history fingerprint.
func (res *Result) setHistory(h *history.History) {
	res.Hist = h
	res.Ops = len(h.Ops)
	for _, op := range h.Ops {
		if op.Pending() {
			res.Pending++
		}
	}
	var buf bytes.Buffer
	if err := h.DumpJSON(&buf); err == nil {
		res.HistoryHash = hashBytes(buf.Bytes())
	}
}

// Hash fingerprints the schedule (first 16 hex digits of SHA-256 over its
// canonical JSON).
func (s Schedule) Hash() string {
	b, err := json.Marshal(s)
	if err != nil {
		return "unhashable"
	}
	return hashBytes(b)
}

func hashBytes(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}
