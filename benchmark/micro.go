package main

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"mpsnap/internal/rt"
	"mpsnap/internal/wire"
)

// The micro-measurements isolate two layers from everything above them,
// replaying the messages the traced run captured at the handlers.

const (
	echoPings   = 2000 // at refSeconds; scaled like the op lists
	streamMsgs  = 8000 // below the transport's outbound queue bound (16384)
	microRounds = 3
	wirePasses  = 20
)

// decodeCorpus returns the captured frames that decode, with their messages.
func decodeCorpus(captured [][]byte) (frames [][]byte, msgs []rt.Message) {
	for _, f := range captured {
		if msg, err := wire.Unmarshal(f); err == nil {
			frames, msgs = append(frames, f), append(msgs, msg)
		}
	}
	return frames, msgs
}

// wireMicro times wire.Marshal and wire.Unmarshal over the corpus.
func wireMicro(frames [][]byte, msgs []rt.Message, m map[string]float64) {
	if len(msgs) == 0 {
		return
	}
	var enc, dec []float64
	var allocs float64
	for round := 0; round < microRounds; round++ {
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		t0 := time.Now()
		for p := 0; p < wirePasses; p++ {
			for _, msg := range msgs {
				if _, err := wire.Marshal(msg); err != nil {
					return
				}
			}
		}
		t1 := time.Now()
		for p := 0; p < wirePasses; p++ {
			for _, f := range frames {
				_, _ = wire.Unmarshal(f)
			}
		}
		t2 := time.Now()
		runtime.ReadMemStats(&ms1)
		n := float64(wirePasses * len(msgs))
		enc = append(enc, float64(t1.Sub(t0))/n)
		dec = append(dec, float64(t2.Sub(t1))/n)
		allocs = float64(ms1.Mallocs-ms0.Mallocs) / n
	}
	m["wire.encode_ns_per_msg"] = median(enc)
	m["wire.decode_ns_per_msg"] = median(dec)
	m["wire.allocs_per_roundtrip"] = allocs
}

// transportMicro measures the TCP transport alone on a 2-node mesh: a
// ping-pong for round-trip time and a one-way stream for throughput.
func transportMicro(msgs []rt.Message, seconds float64, m map[string]float64) error {
	if len(msgs) == 0 {
		return nil
	}
	pings, stream := scaleOps(echoPings, seconds), int64(scaleOps(streamMsgs, seconds))
	msh, err := dialMesh(2, 0, nil)
	if err != nil {
		return fmt.Errorf("transport micro: %w", err)
	}
	defer msh.close()
	pong := make(chan struct{}, 1)
	var got atomic.Int64
	streamDone := make(chan struct{}, 1)
	var streaming atomic.Bool
	r0, r1 := msh.nodes[0].Runtime(), msh.nodes[1].Runtime()
	msh.nodes[0].SetHandler(rt.HandlerFunc(func(src int, msg rt.Message) {
		if src == 1 {
			pong <- struct{}{}
		}
	}))
	msh.nodes[1].SetHandler(rt.HandlerFunc(func(src int, msg rt.Message) {
		if src != 0 {
			return
		}
		if !streaming.Load() {
			r1.Send(0, msg)
		} else if got.Add(1) == stream {
			streamDone <- struct{}{}
		}
	}))
	rtts := make([]int64, 0, pings)
	for i := 0; i < pings; i++ {
		t0 := time.Now()
		r0.Send(1, msgs[i%len(msgs)])
		<-pong
		rtts = append(rtts, int64(time.Since(t0)))
	}
	m["transport.echo_rtt_p50_us"] = percentile(sortedCopy(rtts), .5) / 1e3
	streaming.Store(true)
	var rates []float64
	for round := 0; round < microRounds; round++ {
		got.Store(0)
		t0 := time.Now()
		for i := 0; i < int(stream); i++ {
			r0.Send(1, msgs[i%len(msgs)])
		}
		<-streamDone
		rates = append(rates, float64(stream)/time.Since(t0).Seconds())
	}
	m["transport.stream_msgs_per_s"] = median(rates)
	return nil
}
