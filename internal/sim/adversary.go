package sim

import "mpsnap/internal/rt"

// Adversary intercepts broadcasts, deciding which destinations the sender
// reaches before (possibly) crashing. This is the mechanism behind the
// paper's failure chains (Definition 11): a node crashes "while sending v
// to other nodes", so only a prefix of the destinations receives it.
type Adversary interface {
	// OnBroadcast is consulted once per broadcast. dsts is the full
	// destination list (all nodes). The returned slice is the set of
	// destinations actually sent to, in order; if crashAfter is true the
	// sender crashes immediately after those sends complete. dsts is
	// valid only during the call: the World refills it for the next
	// broadcast, so an implementation may return a subslice of it but
	// must copy it to keep it.
	OnBroadcast(now rt.Ticks, src int, msg rt.Message, dsts []int) (send []int, crashAfter bool)
}

// AdversaryFunc adapts a function to the Adversary interface.
type AdversaryFunc func(now rt.Ticks, src int, msg rt.Message, dsts []int) ([]int, bool)

// OnBroadcast implements Adversary.
func (f AdversaryFunc) OnBroadcast(now rt.Ticks, src int, msg rt.Message, dsts []int) ([]int, bool) {
	return f(now, src, msg, dsts)
}

// ChainSpec describes one failure chain p_1, ..., p_m (Definition 11):
// p_1 invokes an UPDATE and crashes while sending its value, reaching only
// p_2; each intermediate p_i crashes while forwarding, reaching only
// p_{i+1}; the final node is correct and forwards the value to everyone.
// Nodes[0..m-2] are consumed as faulty nodes; Nodes[m-1] stays correct.
type ChainSpec struct {
	Nodes []int
}

// FailureChains is the adversary that realizes a set of failure chains.
// It identifies the value of a chain by the key of the first matching
// broadcast made by the chain's head, then tracks that value through
// forwards. KeyOf must return a comparable identity for forwardable value
// messages (e.g. the value's timestamp) and ok=false for everything else.
type FailureChains struct {
	KeyOf  func(msg rt.Message) (key any, ok bool)
	chains []ChainSpec

	headToChain map[int]int // unstarted chains, by head node
	assigned    map[any]int // value key -> chain index
	posInChain  []map[int]int
}

// NewFailureChains builds the adversary for the given chains.
func NewFailureChains(keyOf func(rt.Message) (any, bool), chains ...ChainSpec) *FailureChains {
	fc := &FailureChains{
		KeyOf:       keyOf,
		chains:      chains,
		headToChain: make(map[int]int),
		assigned:    make(map[any]int),
	}
	fc.posInChain = make([]map[int]int, len(chains))
	for ci, c := range chains {
		if len(c.Nodes) < 2 {
			panic("sim: failure chain needs at least 2 nodes")
		}
		fc.headToChain[c.Nodes[0]] = ci
		fc.posInChain[ci] = make(map[int]int, len(c.Nodes))
		for i, node := range c.Nodes {
			fc.posInChain[ci][node] = i
		}
	}
	return fc
}

// FaultyNodes returns all nodes the chains will crash (every chain node
// except the last of each chain).
func (fc *FailureChains) FaultyNodes() []int {
	var out []int
	for _, c := range fc.chains {
		out = append(out, c.Nodes[:len(c.Nodes)-1]...)
	}
	return out
}

// OnBroadcast implements Adversary.
func (fc *FailureChains) OnBroadcast(now rt.Ticks, src int, msg rt.Message, dsts []int) ([]int, bool) {
	key, ok := fc.KeyOf(msg)
	if !ok {
		return dsts, false
	}
	ci, tracked := fc.assigned[key]
	if !tracked {
		// A chain starts when its head broadcasts a value for the
		// first time.
		hc, isHead := fc.headToChain[src]
		if !isHead {
			return dsts, false
		}
		delete(fc.headToChain, src)
		fc.assigned[key] = hc
		ci = hc
	}
	chain := fc.chains[ci].Nodes
	i, inChain := fc.posInChain[ci][src]
	if !inChain || i == len(chain)-1 {
		// The terminal (correct) node — or an unrelated node that
		// somehow got the value — broadcasts normally.
		return dsts, false
	}
	// Faulty hop: reach only the next chain node, then crash.
	return []int{chain[i+1]}, true
}

// BuildChains constructs chains of increasing length 2, 3, 4, ... from a
// budget of faultyBudget crash faults, drawing faulty nodes from faultyPool
// (each used at most once) and terminating every chain at the correct node
// terminal. A chain of length m consumes m-1 faulty nodes. It returns the
// chains and the number of faulty nodes actually consumed.
func BuildChains(faultyPool []int, faultyBudget int, terminal int) ([]ChainSpec, int) {
	var chains []ChainSpec
	used := 0
	next := 0
	for length := 2; ; length++ {
		need := length - 1
		if used+need > faultyBudget || next+need > len(faultyPool) {
			break
		}
		nodes := make([]int, 0, length)
		nodes = append(nodes, faultyPool[next:next+need]...)
		nodes = append(nodes, terminal)
		chains = append(chains, ChainSpec{Nodes: nodes})
		next += need
		used += need
	}
	return chains, used
}
