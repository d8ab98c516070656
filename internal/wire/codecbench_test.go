package wire_test

import (
	"bytes"
	"encoding/gob"
	"io"
	"math/rand"
	"reflect"
	"testing"

	"mpsnap/internal/rt"
	"mpsnap/internal/wire"
)

// benchCorpus generates the EQ-ASO hot messages (tags 16–24): the values,
// acks, and view messages that dominate UPDATE/SCAN traffic. One fixed
// seed keeps the corpus identical across the wire and gob benchmarks, so
// their ns/op are directly comparable. Messages gob cannot encode at all
// (core.View's zero-copy representation has no exported fields) are
// dropped from both sides so the two benchmarks measure the same corpus.
func benchCorpus() []rt.Message {
	rng := rand.New(rand.NewSource(1))
	var msgs []rt.Message
	for _, c := range wire.Registered() {
		if c.Tag < 16 || c.Tag > 24 {
			continue
		}
		for k := 0; k < 4; k++ {
			msg := c.Gen(rng)
			if gob.NewEncoder(io.Discard).Encode(msg) != nil {
				break
			}
			msgs = append(msgs, msg)
		}
	}
	if len(msgs) == 0 {
		panic("benchCorpus: no eqaso codecs registered")
	}
	return msgs
}

// BenchmarkWireCodec round-trips the corpus through the typed codec: one
// self-contained encode plus decode per message, the unit of work a
// framed transport performs. `aso bench` -e codec parses this output.
func BenchmarkWireCodec(b *testing.B) {
	msgs := benchCorpus()
	var buf wire.Buffer
	total := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		msg := msgs[i%len(msgs)]
		buf.Reset()
		if err := wire.AppendMessage(&buf, msg); err != nil {
			b.Fatal(err)
		}
		total += buf.Len()
		if _, err := wire.Unmarshal(buf.Bytes()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(total)/float64(b.N), "wirebytes/op")
}

// BenchmarkGobCodec is the baseline the wire codec replaced: the same
// corpus through encoding/gob, one self-contained stream per message (a
// length-prefixed framed transport cannot amortize gob's type descriptors
// across messages that must each decode independently).
func BenchmarkGobCodec(b *testing.B) {
	msgs := benchCorpus()
	var buf bytes.Buffer
	total := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		msg := msgs[i%len(msgs)]
		buf.Reset()
		if err := gob.NewEncoder(&buf).Encode(msg); err != nil {
			b.Fatal(err)
		}
		total += buf.Len()
		out := reflect.New(reflect.TypeOf(msg))
		if err := gob.NewDecoder(bytes.NewReader(buf.Bytes())).Decode(out.Interface()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(total)/float64(b.N), "wirebytes/op")
}
