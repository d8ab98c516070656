// Package engine defines the pluggable snapshot-engine abstraction: the
// one interface every snapshot-object protocol implements, optional
// capability surfaces (batching, observability, WAL durability and
// recovery), and a name-keyed registry through which every layer above
// the protocols — the service front (internal/svc), the
// chaos harness (internal/chaos), the benchmark harness (internal/bench),
// the sharded cluster (internal/cluster), and the cmds — instantiates
// engines without referencing concrete node types.
//
// Protocol packages self-register from an init function (the same pattern
// as the wire codec registry), so a package that is linked in is
// selectable by name. Importing mpsnap/internal/engine/all links every
// engine in the repository.
package engine

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"mpsnap/internal/core"
	"mpsnap/internal/rt"
	"mpsnap/internal/segment"
	"mpsnap/internal/wal"
)

// Engine is the client+server face of one snapshot-object node: the
// message handler driven by the server thread plus the Update/Scan
// operations driven by the node's single client thread. Scan returns an
// atomic snapshot of all n segments; for Sequential engines it is
// sequentially consistent rather than linearizable. Construct it on a
// runtime via Info.New (or Info.Recover) and install it as the node's
// handler before operating on it.
type Engine interface {
	rt.Handler
	segment.Object
}

// Observable is implemented by engines that emit operation lifecycle
// events (obs integration). Install the observer before the first
// operation.
type Observable interface {
	SetObserver(o rt.Observer)
}

// Batcher is implemented by engines that can fold several pending
// payloads of their node into one protocol operation (the svc layer's
// UPDATE coalescing fast path).
type Batcher interface {
	UpdateBatch(payloads [][]byte) error
}

// Folder is implemented by engines whose scans extract each writer's
// segment as the fold of all its values (core.Fold) rather than its latest
// one, so a writer may publish deltas. internal/cluster asserts it on the
// handler a shard's constructor returns; SetFold must be called before the
// engine is installed as a message handler, and fails on an engine that
// already holds values under another fold.
type Folder interface {
	SetFold(f core.Fold) error
}

// Durable is implemented by engines that can persist their protocol state
// to a write-ahead log. AttachWAL must be called before the engine is
// installed as a message handler.
type Durable interface {
	AttachWAL(w *wal.Writer, gc bool)
}

// Rejoiner is implemented by recovered engines that re-enter the protocol
// after a crash (call Rejoin from the client thread before resuming the
// workload).
type Rejoiner interface {
	Rejoin()
}

// Info describes one registered engine: its construction entry points and
// the metadata consumers need to validate topologies, pick consistency
// checkers, and route recovery.
type Info struct {
	// Name keys the engine in the registry and the -engine CLI flags.
	Name string
	// Doc is a one-line description for listings.
	Doc string
	// Sequential marks engines whose scans are sequentially consistent
	// (the paper's Definition 2) rather than linearizable: the service
	// layer serves them in sequential mode and the chaos harness checks
	// sequential consistency instead of (A1)-(A4).
	Sequential bool
	// Byzantine marks engines that tolerate Byzantine faults and
	// therefore require n > 3f instead of the crash bound n > 2f.
	Byzantine bool
	// Baseline marks the Table I baselines kept for comparison runs.
	Baseline bool
	// New constructs a fresh engine on a runtime.
	New func(r rt.Runtime) Engine
	// Recover rebuilds the engine from a replayed WAL; nil when the
	// engine has no durability support. The result implements Rejoiner.
	Recover func(r rt.Runtime, st *wal.State, w *wal.Writer, gc bool) Engine
}

// Durable reports whether the engine can persist to a WAL and recover
// from it.
func (in Info) Durable() bool { return in.Recover != nil }

// MaxF is the most faults a cluster of n nodes tolerates under the
// engine's fault model — what every front door means by f = 0.
func (in Info) MaxF(n int) int {
	if in.Byzantine {
		return (n - 1) / 3
	}
	return (n - 1) / 2
}

// Validate checks an (n, f) topology against the engine's resilience
// requirement.
func (in Info) Validate(n, f int) error {
	if n <= 0 || f < 0 || n <= 2*f {
		return fmt.Errorf("engine %s: need n > 2f, got n=%d f=%d", in.Name, n, f)
	}
	if in.Byzantine && n <= 3*f {
		return fmt.Errorf("engine %s: need n > 3f, got n=%d f=%d", in.Name, n, f)
	}
	return nil
}

// UnknownError is the typed error returned by Lookup for a name that is
// not in the registry.
type UnknownError struct {
	Name string
}

func (e *UnknownError) Error() string {
	return fmt.Sprintf("engine: unknown engine %q (registered: %s)",
		e.Name, strings.Join(Names(), "|"))
}

var (
	mu       sync.RWMutex
	registry = make(map[string]Info)
)

// Register adds an engine to the registry. It panics on an empty name, a
// nil constructor, or a duplicate registration — all are wiring bugs.
func Register(in Info) {
	if in.Name == "" {
		panic("engine: Register with empty name")
	}
	if in.New == nil {
		panic("engine: Register " + in.Name + " with nil constructor")
	}
	mu.Lock()
	defer mu.Unlock()
	if _, dup := registry[in.Name]; dup {
		panic("engine: duplicate registration of " + in.Name)
	}
	registry[in.Name] = in
}

// Lookup resolves a registry name. Unknown names return *UnknownError.
func Lookup(name string) (Info, error) {
	mu.RLock()
	in, ok := registry[name]
	mu.RUnlock()
	if !ok {
		return Info{}, &UnknownError{Name: name}
	}
	return in, nil
}

// MustLookup is Lookup for names that are statically known to be
// registered; it panics otherwise.
func MustLookup(name string) Info {
	in, err := Lookup(name)
	if err != nil {
		panic(err)
	}
	return in
}

// New constructs the named engine on a runtime.
func New(name string, r rt.Runtime) (Engine, error) {
	in, err := Lookup(name)
	if err != nil {
		return nil, err
	}
	return in.New(r), nil
}

// Names lists every registered engine name, sorted.
func Names() []string {
	mu.RLock()
	defer mu.RUnlock()
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// FlagHelp renders the -engine flag vocabulary: the non-baseline engines,
// sorted and joined by "|" ("acr|byzaso|...").
func FlagHelp() string {
	mu.RLock()
	defer mu.RUnlock()
	var out []string
	for name, in := range registry {
		if !in.Baseline {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return strings.Join(out, "|")
}
