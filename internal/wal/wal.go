// Package wal is the crash-recovery layer: a write-ahead log each node
// appends its protocol state changes to, durable before they are acted
// on, and replays after a crash to rebuild its core.ValueLog.
//
// Three record kinds cover the whole state machine:
//
//   - value: a value entered V[self] (own UPDATEs are synced before they
//     are disseminated — the one sync an operation waits for; received
//     values are appended as they are admitted);
//   - checkpoint: the node's frontier advanced after a good lattice
//     operation — durable before the node vouches for the checkpoint to
//     peers, so a vouch is never retracted by a crash;
//   - prune: the node garbage-collects its log below a globally-vouched
//     checkpoint — durable before the prune executes, so a recovered
//     node has pruned at least as far as it had live and its digests
//     match live peers exactly.
//
// A checkpoint or prune record forces no sync of its own: the node parks
// the act and performs it once Counters.Durable shows that a later sync
// (its next own value, or the every-batch-appends one) covered the record.
//
// # Record layout
//
//	offset 0..3   payload length, uint32 big-endian (≤ MaxRecord)
//	offset 4..7   CRC-32C (Castagnoli) of the payload, uint32 big-endian
//	offset 8..    payload
//
// # Payload layout
//
//	offset 0      wal version byte (Version)
//	offset 1      record kind (RecValue, RecCheckpoint, RecPrune)
//	offset 2..    body, encoded with the internal/wire field codecs
//
// Replay is hostile-input safe: arbitrary bytes never panic, a torn or
// corrupt record stops replay cleanly at the last intact prefix (the
// fsync discipline guarantees everything the node acted on is in that
// prefix), and embedded lengths are validated against the bytes in hand.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"mpsnap/internal/core"
	"mpsnap/internal/wire"
)

// Version is the WAL payload version byte.
const Version byte = 1

// Record kinds.
const (
	RecValue      byte = 1 // varint src, value
	RecCheckpoint byte = 2 // checkpoint
	RecPrune      byte = 3 // checkpoint
)

// headerLen is the per-record framing overhead: length + CRC.
const headerLen = 8

// MaxRecord caps a single record's payload, bounding the allocation a
// corrupt length prefix can cause.
const MaxRecord = 1 << 20

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Replay tail errors (wrapped with position detail).
var (
	// ErrTornRecord reports a record cut short — the normal shape of a
	// crash mid-write.
	ErrTornRecord = errors.New("wal: torn record")
	// ErrBadCRC reports a payload whose checksum does not match.
	ErrBadCRC = errors.New("wal: record checksum mismatch")
	// ErrBadRecord reports a payload that frames correctly but does not
	// decode (unknown version or kind, malformed body).
	ErrBadRecord = errors.New("wal: malformed record")
)

// File is the durability surface the writer needs; *os.File satisfies it,
// and MemFile provides a power-cut-simulating in-memory implementation.
type File interface {
	io.Writer
	Sync() error
}

// Writer appends records to a WAL file with batched fsync: appends
// accumulate and the file is synced every batch records, or explicitly
// via Sync at the protocol's one blocking durability point (before
// disseminating an own value). Whoever must act only after a record is
// durable remembers Counters().Appends as of the append and waits for
// Counters().Durable to reach it. Errors latch: after the first write or
// sync failure every call reports it, nothing more is written and Durable
// never advances again.
type Writer struct {
	f     File
	batch int
	n     Counters
	buf   wire.Buffer
	frame []byte
	err   error
}

// Counters are a writer's running totals. Records Durable+1..Appends are
// written but not yet covered by a successful sync.
type Counters struct {
	Appends int64 // records written
	Durable int64 // of those, how many the last successful sync covered
	Syncs   int64 // successful file syncs
	Bytes   int64 // bytes written, framing included
}

// NewWriter returns a writer over f syncing every batch appends (batch
// ≤ 0 means sync on every append).
func NewWriter(f File, batch int) *Writer {
	return &Writer{f: f, batch: batch}
}

// Err returns the first write or sync failure, or nil.
func (w *Writer) Err() error { return w.err }

// Counters returns the writer's running totals.
func (w *Writer) Counters() Counters { return w.n }

func (w *Writer) append(kind byte, body func(*wire.Buffer)) error {
	if w.err != nil {
		return w.err
	}
	w.buf.Reset()
	w.buf.PutByte(Version)
	w.buf.PutByte(kind)
	body(&w.buf)
	payload := w.buf.Bytes()
	if len(payload) > MaxRecord {
		w.err = fmt.Errorf("wal: record payload %d exceeds cap %d", len(payload), MaxRecord)
		return w.err
	}
	w.frame = w.frame[:0]
	w.frame = binary.BigEndian.AppendUint32(w.frame, uint32(len(payload)))
	w.frame = binary.BigEndian.AppendUint32(w.frame, crc32.Checksum(payload, crcTable))
	w.frame = append(w.frame, payload...)
	if _, err := w.f.Write(w.frame); err != nil {
		w.err = fmt.Errorf("wal: append: %w", err)
		return w.err
	}
	w.n.Appends++
	w.n.Bytes += int64(len(w.frame))
	if w.n.Appends-w.n.Durable >= int64(w.batch) {
		return w.Sync()
	}
	return nil
}

// Sync flushes pending appends to stable storage.
func (w *Writer) Sync() error {
	if w.err != nil {
		return w.err
	}
	if w.n.Durable == w.n.Appends {
		return nil
	}
	if err := w.f.Sync(); err != nil {
		w.err = fmt.Errorf("wal: sync: %w", err)
		return w.err
	}
	w.n.Durable = w.n.Appends
	w.n.Syncs++
	return nil
}

// AppendValue records that value v (received from src) entered V[self].
func (w *Writer) AppendValue(src int, v core.Value) error {
	return w.append(RecValue, func(b *wire.Buffer) {
		b.PutInt(src)
		wire.PutValue(b, v)
	})
}

// AppendCheckpoint records a frontier advance. It forces no sync: the
// caller vouches the checkpoint to peers only once Counters().Durable
// covers the record.
func (w *Writer) AppendCheckpoint(ck core.Checkpoint) error {
	return w.append(RecCheckpoint, func(b *wire.Buffer) { wire.PutCheckpoint(b, ck) })
}

// AppendPrune records a garbage collection below ck. It forces no sync:
// the caller executes the prune only once Counters().Durable covers the
// record.
func (w *Writer) AppendPrune(ck core.Checkpoint) error {
	return w.append(RecPrune, func(b *wire.Buffer) { wire.PutCheckpoint(b, ck) })
}

// Record is one decoded WAL record.
type Record struct {
	Kind byte
	Src  int             // RecValue
	Val  core.Value      // RecValue
	Ck   core.Checkpoint // RecCheckpoint, RecPrune
}

// Replay decodes every intact record from the front of data, stopping
// cleanly at the first torn or corrupt one. It returns the decoded
// records, the byte length of the intact prefix (the offset replay
// stopped at — the point a caller must truncate to before appending new
// records after garbage bytes), and an error describing why replay
// stopped (nil when data ends exactly at a record boundary). The records
// before the stop are always valid. Replay never panics on arbitrary
// input.
func Replay(data []byte) ([]Record, int, error) {
	var recs []Record
	off := 0
	for off < len(data) {
		if len(data)-off < headerLen {
			return recs, off, fmt.Errorf("%w: %d trailing header bytes at offset %d", ErrTornRecord, len(data)-off, off)
		}
		n := binary.BigEndian.Uint32(data[off:])
		if n > MaxRecord {
			return recs, off, fmt.Errorf("%w: length %d exceeds cap at offset %d", ErrBadRecord, n, off)
		}
		want := binary.BigEndian.Uint32(data[off+4:])
		if uint32(len(data)-off-headerLen) < n {
			return recs, off, fmt.Errorf("%w: %d payload bytes of %d at offset %d", ErrTornRecord, len(data)-off-headerLen, n, off)
		}
		payload := data[off+headerLen : off+headerLen+int(n)]
		if got := crc32.Checksum(payload, crcTable); got != want {
			return recs, off, fmt.Errorf("%w: %08x != %08x at offset %d", ErrBadCRC, got, want, off)
		}
		rec, err := decodeRecord(payload)
		if err != nil {
			return recs, off, fmt.Errorf("%w at offset %d: %w", ErrBadRecord, off, err)
		}
		recs = append(recs, rec)
		off += headerLen + int(n)
	}
	return recs, off, nil
}

func decodeRecord(payload []byte) (Record, error) {
	d := wire.NewDecoder(payload)
	if v := d.Byte(); v != Version {
		return Record{}, fmt.Errorf("unknown wal version %d", v)
	}
	rec := Record{Kind: d.Byte()}
	switch rec.Kind {
	case RecValue:
		rec.Src = d.Int()
		rec.Val = wire.GetValue(d)
	case RecCheckpoint, RecPrune:
		rec.Ck = wire.GetCheckpoint(d)
	default:
		return Record{}, fmt.Errorf("unknown record kind %d", rec.Kind)
	}
	if err := d.Err(); err != nil {
		return Record{}, err
	}
	if d.Remaining() != 0 {
		return Record{}, fmt.Errorf("%d trailing bytes after record body", d.Remaining())
	}
	return rec, nil
}
