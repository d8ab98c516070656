package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"strconv"
)

type opKind uint8

const (
	opUpdate opKind = iota
	opScan
)

// op is one pre-generated client operation.
type op struct {
	kind opKind
	node int32 // node the client calls (svc front, or cluster router)
	key  int32 // cluster workloads: index into opList.keys
}

// opList is a workload's whole input: generated from the seed before any
// timing starts, so every repetition executes the same operations in the
// same order. The first warm ops are the warm-up, charged to setup_s.
type opList struct {
	ops     []op
	warm    int
	size    int // payload bytes
	arena   []byte
	keys    []string
	seed    int64
	scanPct int
}

// opSpec describes the traffic mix a list is drawn from.
type opSpec struct {
	warm, measured int
	scanPct        int
	nodes          int
	payload        int
	keys           int     // 0: unkeyed
	zipfS          float64 // key skew (keys > 0)
}

func genOps(seed int64, sp opSpec) *opList {
	rng := rand.New(rand.NewSource(seed))
	n := sp.warm + sp.measured
	l := &opList{ops: make([]op, n), warm: sp.warm, size: sp.payload, seed: seed, scanPct: sp.scanPct}
	var zipf *rand.Zipf
	if sp.keys > 0 {
		zipf = rand.NewZipf(rng, sp.zipfS, 1, uint64(sp.keys-1))
		l.keys = make([]string, sp.keys)
		for k := range l.keys {
			l.keys[k] = fmt.Sprintf("k%04d", k)
		}
	}
	for i := range l.ops {
		o := op{node: int32(rng.Intn(sp.nodes))}
		if rng.Intn(100) < sp.scanPct {
			o.kind = opScan
		}
		if zipf != nil {
			o.key = int32(zipf.Uint64())
		}
		l.ops[i] = o
	}
	// Every payload is unique (it starts with the op index), which is the
	// paper's value-uniqueness assumption and what lets the checkers map
	// a scanned value back to the update that wrote it.
	l.arena = make([]byte, n*sp.payload)
	rng.Read(l.arena)
	for i := 0; i < n; i++ {
		binary.BigEndian.PutUint64(l.arena[i*sp.payload:], uint64(i))
	}
	return l
}

func (l *opList) payload(i int) []byte { return l.arena[i*l.size : (i+1)*l.size : (i+1)*l.size] }

// parseKey recovers a key's index in opList.keys from its name.
func parseKey(k string) (int, bool) {
	if len(k) < 2 || k[0] != 'k' {
		return 0, false
	}
	v, err := strconv.Atoi(k[1:])
	return v, err == nil && v >= 0
}

// payloadOp recovers the op index a scanned payload was written by.
func payloadOp(p []byte) (int, bool) {
	if len(p) < 8 {
		return 0, false
	}
	return int(binary.BigEndian.Uint64(p)), true
}
