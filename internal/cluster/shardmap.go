package cluster

import "fmt"

// ShardMap is the placement document: which global nodes form each
// shard's cluster, and how keys hash onto shards. Every node of a topology
// is built from the same map, which never changes: each shard is a static
// n-process system.
type ShardMap struct {
	// VNodes is the per-shard virtual-node count of the placement ring.
	VNodes int
	// F is the per-shard resilience bound (each shard tolerates F of its
	// members crashing; len(Members[s]) > 2F).
	F int
	// Members lists each shard's cluster as global node IDs, in shard-
	// local ID order: Members[s][l] is shard s's local node l.
	Members [][]int
}

// Shards returns the shard count.
func (m ShardMap) Shards() int { return len(m.Members) }

// NumNodes returns the number of distinct global nodes the map spans
// (max member ID + 1).
func (m ShardMap) NumNodes() int {
	max := -1
	for _, ms := range m.Members {
		for _, id := range ms {
			if id > max {
				max = id
			}
		}
	}
	return max + 1
}

// Ring builds the map's placement ring. Callers that route per-operation
// should build it once (Node does).
func (m ShardMap) Ring() *Ring { return NewRing(m.Shards(), m.VNodes) }

// OwnedBy returns the shards node id is a member of, in shard order.
func (m ShardMap) OwnedBy(id int) []int {
	var out []int
	for s, ms := range m.Members {
		for _, g := range ms {
			if g == id {
				out = append(out, s)
				break
			}
		}
	}
	return out
}

// LocalID returns node id's shard-local index in shard s, or -1.
func (m ShardMap) LocalID(s, id int) int {
	for l, g := range m.Members[s] {
		if g == id {
			return l
		}
	}
	return -1
}

// Validate checks the map's structural invariants.
func (m ShardMap) Validate() error {
	if len(m.Members) == 0 {
		return fmt.Errorf("cluster: shard map has no shards")
	}
	if m.VNodes <= 0 || m.VNodes > maxVNodes {
		return fmt.Errorf("cluster: shard map needs VNodes in [1, %d], got %d", maxVNodes, m.VNodes)
	}
	for s, ms := range m.Members {
		if len(ms) <= 2*m.F {
			return fmt.Errorf("cluster: shard %d has %d members, need > 2f = %d", s, len(ms), 2*m.F)
		}
		seen := make(map[int]bool, len(ms))
		for _, g := range ms {
			if g < 0 {
				return fmt.Errorf("cluster: shard %d has negative member %d", s, g)
			}
			if seen[g] {
				return fmt.Errorf("cluster: shard %d lists member %d twice", s, g)
			}
			seen[g] = true
		}
	}
	return nil
}

// ContiguousMap builds the standard topology: shards × n nodes, shard s
// owning global IDs [s·n, (s+1)·n).
func ContiguousMap(shards, n, f, vnodes int) ShardMap {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	m := ShardMap{VNodes: vnodes, F: f, Members: make([][]int, shards)}
	for s := 0; s < shards; s++ {
		ms := make([]int, n)
		for l := 0; l < n; l++ {
			ms[l] = s*n + l
		}
		m.Members[s] = ms
	}
	return m
}
