// Package rt defines the abstract node runtime that every algorithm in this
// repository is written against.
//
// The model mirrors the paper's system model (Section II-A): each node has
// one server thread that handles incoming messages atomically, and one
// sequential client thread that invokes operations. Operations alternate
// between sending messages and blocking on local predicates ("wait until"
// in the pseudocode). The same algorithm code runs unchanged on the
// deterministic virtual-time simulator (internal/sim) and on the real-time
// transports (internal/transport).
package rt

import "errors"

// Ticks is a point in (or duration of) virtual time. Real-time runtimes
// convert wall-clock durations into ticks using their configured D.
type Ticks int64

// TicksPerD is the number of virtual-time ticks that make up one maximum
// message delay D. All experiment output is reported in units of D.
const TicksPerD Ticks = 1000

// DUnits converts a tick count into (fractional) units of D.
func (t Ticks) DUnits() float64 { return float64(t) / float64(TicksPerD) }

// ErrCrashed is returned from a blocking wait when the local node has
// crashed. Operations must propagate it; the operation is considered to
// have no response event.
var ErrCrashed = errors.New("rt: node crashed")

// Message is a protocol message. Concrete message types live next to the
// algorithm that owns them and must be registered with internal/wire
// (a stable tag plus Encode/Decode) to cross a transport or the
// simulator's copy-through mode.
type Message interface {
	// Kind returns a short stable name used for tracing, metrics, and
	// delay-model matching (e.g. "value", "writeTag", "goodLA").
	Kind() string
}

// Handler is the server thread of a node: it processes one message at a
// time. The runtime guarantees that HandleMessage executions are atomic
// with respect to each other and to Atomic/WaitUntilThen critical sections
// on the same node. Handlers must not block; they may mutate node state and
// send messages.
type Handler interface {
	HandleMessage(src int, msg Message)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(src int, msg Message)

// HandleMessage calls f(src, msg).
func (f HandlerFunc) HandleMessage(src int, msg Message) { f(src, msg) }

// Runtime is the per-node execution environment handed to an algorithm.
//
// Channel semantics (Section II-A of the paper): point-to-point channels
// are reliable and FIFO. Once Send returns, delivery is guaranteed even if
// the sender subsequently crashes. Messages from a crashed node that were
// never sent are lost; a crashed node stops sending and handling.
type Runtime interface {
	// ID is this node's identifier in [0, N).
	ID() int
	// N is the total number of nodes.
	N() int
	// F is the resilience bound (maximum number of faulty nodes).
	F() int

	// Send transmits msg to dst over the reliable FIFO channel. It never
	// blocks; it may be called from handlers and from critical sections.
	Send(dst int, msg Message)
	// Broadcast sends msg to all nodes, including the sender itself.
	// It is equivalent to a loop of Sends and is NOT atomic with respect
	// to crashes: a node may crash partway through, reaching only a
	// prefix of the destinations (this is how failure chains form).
	Broadcast(msg Message)

	// Atomic runs fn mutually exclusive with the node's message handler
	// and any other critical section on this node.
	Atomic(fn func())

	// WaitUntilThen blocks the calling client thread until pred() holds,
	// then runs then() in the same critical section in which pred was
	// observed true. pred must be side-effect free; it is evaluated under
	// the node's atomicity guarantee, on whichever goroutine ends a
	// critical section (then runs there too, so neither may block or
	// re-enter the node), and as the clock advances (a deadline may sit
	// inside pred: the simulator re-evaluates on every clock change, the
	// real-time transports at least once per D while the waiter is
	// parked). label is used for deadlock diagnostics. Returns ErrCrashed
	// if the node crashes before or while waiting.
	WaitUntilThen(label string, pred func() bool, then func()) error

	// Now returns the current time in ticks (virtual time under the
	// simulator, scaled wall-clock time on real transports).
	Now() Ticks

	// Crashed reports whether this node has crashed.
	Crashed() bool
}

// WaitUntil blocks until pred() holds (see Runtime.WaitUntilThen).
func WaitUntil(r Runtime, label string, pred func() bool) error {
	return r.WaitUntilThen(label, pred, func() {})
}

// Op phase markers common to every operation event stream. Algorithm-
// specific phase names ("readTag", "eqWait", "borrow", ...) appear between
// a PhaseStart and a PhaseEnd of the same (Node, ID) pair.
const (
	PhaseStart = "start"
	PhaseEnd   = "end"
)

// OpEvent is one operation-lifecycle event: an UPDATE/SCAN starting,
// finishing, or crossing an internal protocol phase. Events of one
// operation share (Node, ID); IDs are per-node sequence numbers.
type OpEvent struct {
	// T is the event time in ticks (virtual on sim, scaled wall-clock on
	// real transports).
	T Ticks
	// Node is the node running the operation.
	Node int
	// ID is the per-node operation sequence number.
	ID int64
	// Op names the operation ("update", "scan", "svc.update", ...).
	Op string
	// Phase is PhaseStart, PhaseEnd, or a protocol phase name.
	Phase string
	// Dur is the operation latency in ticks (PhaseEnd events only).
	Dur Ticks
	// Err marks a failed operation (PhaseEnd events only; the node
	// crashed while the operation was in flight).
	Err bool
}

// Message lifecycle event names for MsgEvent.Event.
const (
	MsgSend    = "send"
	MsgDeliver = "deliver"
	MsgDrop    = "drop"
	MsgCorrupt = "corrupt"
)

// MsgEvent is one message-lifecycle event at a backend.
type MsgEvent struct {
	// T is the event time in ticks.
	T Ticks
	// Event is MsgSend, MsgDeliver, MsgDrop, or MsgCorrupt.
	Event string
	// Src and Dst are the channel endpoints (Dst is -1 when unknown,
	// e.g. a corrupt inbound frame that never identified its stream).
	Src, Dst int
	// Kind is the message kind ("" when the message never decoded).
	Kind string
	// Bytes is the encoded payload size (wire tag + body, excluding
	// framing). 0 when unknown: a frame that never decoded, or an
	// unmarshalable test-local message on an in-memory backend.
	Bytes int
}

// Observer receives runtime events: operation lifecycles from algorithms
// and message lifecycles from backends. Implementations must be safe for
// concurrent use (real transports call them from multiple goroutines) and
// must not block or re-enter the runtime — both methods are invoked on hot
// paths. internal/obs provides the standard implementations (latency
// histograms, per-kind message counters, and a ring-buffer event trace).
type Observer interface {
	OnOp(OpEvent)
	OnMsg(MsgEvent)
}
