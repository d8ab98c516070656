// Package cluster is the multi-cluster placement and routing layer: it
// runs many independent snapshot clusters ("shards", each an n-node EQ-ASO
// instance with its own svc front) behind one keyed client API, places
// keys on shards with a consistent-hash ring built once from the shard map
// every node of the topology shares, routes UPDATE/SCAN over the existing
// mux/transport stack, and implements GlobalScan — a coordinated
// timestamp-frontier cut across all shards, checked by Cut.Validate
// against cross-shard invariants derived from the paper's (A1)–(A4)
// conditions.
package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// DefaultVNodes is the virtual-node count per shard when a map is built
// with VNodes = 0. More vnodes smooth the key distribution; the count is
// part of the shard map (placement must be identical on every node).
const DefaultVNodes = 64

// maxVNodes is the largest per-shard vnode count a valid map may carry:
// a node builds a ring of shards×VNodes points at construction.
const maxVNodes = 1 << 12

// Ring is a consistent-hash ring: each shard owns VNodes points on a
// 64-bit hash circle, and a key belongs to the shard owning the first
// point at or clockwise of the key's hash. Placement is a pure function
// of (shards, vnodes, key) — identical on every node and across runs.
type Ring struct {
	points []ringPoint
}

type ringPoint struct {
	hash  uint64
	shard int
}

// NewRing builds the ring for a shard count and per-shard vnode count.
func NewRing(shards, vnodes int) *Ring {
	if shards <= 0 {
		shards = 1
	}
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	r := &Ring{points: make([]ringPoint, 0, shards*vnodes)}
	for s := 0; s < shards; s++ {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{
				hash:  hash64(fmt.Sprintf("shard-%d/vnode-%d", s, v)),
				shard: s,
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		a, b := r.points[i], r.points[j]
		if a.hash != b.hash {
			return a.hash < b.hash
		}
		return a.shard < b.shard // full-hash collision: deterministic owner
	})
	return r
}

// ShardFor returns the shard a key is placed on.
func (r *Ring) ShardFor(key string) int {
	h := hash64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap: first point clockwise of the top of the circle
	}
	return r.points[i].shard
}

func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}
