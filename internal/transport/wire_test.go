package transport_test

import (
	"encoding/binary"
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"mpsnap/internal/eqaso"
	"mpsnap/internal/harness"
	"mpsnap/internal/rt"
	"mpsnap/internal/transport"
	"mpsnap/internal/wire"
)

// startMesh brings up an n-node TCP mesh on loopback with an error hook
// per node and returns the nodes plus a per-node error sink.
func startMesh(t *testing.T, n, f int) ([]*transport.TCPNode, []*eqaso.Node, func() []error) {
	t.Helper()
	var errMu sync.Mutex
	var surfaced []error
	tnodes, err := transport.LoopbackMesh(n, transport.TCPConfig{
		F: f, D: 5 * time.Millisecond,
		OnError: func(peer int, err error) {
			errMu.Lock()
			surfaced = append(surfaced, err)
			errMu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		for _, tn := range tnodes {
			tn.Close()
		}
	})
	nodes := make([]*eqaso.Node, n)
	for i, tn := range tnodes {
		nodes[i] = eqaso.New(tn.Runtime())
		tn.SetHandler(nodes[i])
	}
	return tnodes, nodes, func() []error {
		errMu.Lock()
		defer errMu.Unlock()
		return append([]error(nil), surfaced...)
	}
}

// dialRaw opens a raw connection to addr and performs the wire handshake
// claiming node id.
func dialRaw(t *testing.T, addr string, id int) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	frame, err := wire.MarshalFrame(transport.Hello{ID: id}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	return conn
}

func waitForError(t *testing.T, get func() []error, want string) error {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		for _, err := range get() {
			if strings.Contains(err.Error(), want) {
				return err
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("no surfaced error containing %q; got %v", want, get())
	return nil
}

// TestTCPDecodeErrorClosesOnlyThatConnection is the regression test for
// the silent recv-loop exit: garbage on one peer connection must close
// that connection and surface a descriptive error, while the rest of the
// mesh keeps serving operations.
func TestTCPDecodeErrorClosesOnlyThatConnection(t *testing.T) {
	if testing.Short() {
		t.Skip("tcp loopback test")
	}
	const n, f = 3, 1
	tnodes, nodes, surfaced := startMesh(t, n, f)

	// A rogue "peer" handshakes as node 2, then emits a frame with a bad
	// version byte.
	rogue := dialRaw(t, tcpAddr(tnodes, 0), 2)
	defer rogue.Close()
	if _, err := rogue.Write([]byte{0xFF, 0, 0, 0, 1, 42}); err != nil {
		t.Fatal(err)
	}
	err := waitForError(t, surfaced, "peer 2")
	if !errors.Is(err, wire.ErrBadVersion) {
		t.Fatalf("surfaced error = %v, want ErrBadVersion", err)
	}
	// The rogue connection is closed by the node...
	rogue.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, rerr := rogue.Read(make([]byte, 1)); rerr == nil {
		t.Fatal("rogue connection still open after decode error")
	}
	// ...and the real mesh still completes operations end to end.
	if err := nodes[1].Update([]byte("alive")); err != nil {
		t.Fatalf("update after decode error: %v", err)
	}
	snap, err := nodes[0].Scan()
	if err != nil {
		t.Fatalf("scan after decode error: %v", err)
	}
	if got := harness.SnapStrings(snap)[1]; got != "alive" {
		t.Fatalf("scan = %v, want node 1 = alive", harness.SnapStrings(snap))
	}
}

// TestTCPFramesBeforeACorruptFrameAreDelivered: a peer that writes k good
// frames and then a bad one in a single write has those k frames
// delivered, in order, before the node drops the connection — and only
// that connection: the real peer behind the same ID still gets through.
func TestTCPFramesBeforeACorruptFrameAreDelivered(t *testing.T) {
	if testing.Short() {
		t.Skip("tcp loopback test")
	}
	const k = 5
	tnodes, _, surfaced := startMesh(t, 3, 1)
	sink := &fifoHandler{}
	tnodes[0].SetHandler(sink)

	rogue := dialRaw(t, tcpAddr(tnodes, 0), 1)
	defer rogue.Close()
	var stream []byte
	for seq := 0; seq < k; seq++ {
		frame, err := wire.MarshalFrame(benchMsg{Seq: seq, Pad: []byte("good")}, 0)
		if err != nil {
			t.Fatal(err)
		}
		stream = append(stream, frame...)
	}
	stream = append(stream, 0xFF, 0, 0, 0, 1, 42) // bad version byte
	if _, err := rogue.Write(stream); err != nil {
		t.Fatal(err)
	}
	serr := waitForError(t, surfaced, "peer 1")
	if !errors.Is(serr, wire.ErrBadVersion) {
		t.Fatalf("surfaced error = %v, want ErrBadVersion", serr)
	}
	rogue.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, rerr := rogue.Read(make([]byte, 1)); rerr == nil {
		t.Fatal("rogue connection still open after the bad frame")
	}

	// The real node 1 reaches node 0 on its own connection, continuing
	// source 1's sequence right after the k good frames.
	tnodes[1].Runtime().Send(0, benchMsg{Seq: k})
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		got, violation := sink.status()
		if violation != nil {
			t.Fatalf("out of order or past the bad frame: %v", violation)
		}
		if got == k+1 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("delivered %d messages, want Seq 0..%d from peer 1", got, k)
		}
	}
}

// TestTCPHandshakeNamingTheReceiverRefused: no node dials itself, so a
// connection whose Hello claims the receiving node's own ID comes from a
// misconfigured or spoofing peer. Its frames would be delivered as the
// node's own; instead the connection is dropped and the error reported,
// and nothing sent on it is delivered.
func TestTCPHandshakeNamingTheReceiverRefused(t *testing.T) {
	if testing.Short() {
		t.Skip("tcp loopback test")
	}
	tnodes, _, surfaced := startMesh(t, 3, 1)
	sink := &fifoHandler{}
	tnodes[0].SetHandler(sink)

	rogue := dialRaw(t, tcpAddr(tnodes, 0), 0)
	defer rogue.Close()
	frame, err := wire.MarshalFrame(benchMsg{Seq: 0, Pad: []byte("spoof")}, 0)
	if err != nil {
		t.Fatal(err)
	}
	rogue.Write(frame) // may fail if the node already dropped the connection
	waitForError(t, surfaced, "bad handshake \"transportHello\" (ID 0)")
	rogue.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, rerr := rogue.Read(make([]byte, 1)); rerr == nil {
		t.Fatal("connection claiming the receiver's ID still open")
	}
	if got, _ := sink.status(); got != 0 {
		t.Fatalf("%d messages from the spoofed connection were delivered", got)
	}
}

// tcpAddr is node i's actual listen address.
func tcpAddr(tnodes []*transport.TCPNode, i int) string {
	return tnodes[i].Addr()
}

// TestTCPOversizedFrameRejected: a corrupt length prefix larger than the
// cap must be rejected before any allocation and surfaced.
func TestTCPOversizedFrameRejected(t *testing.T) {
	if testing.Short() {
		t.Skip("tcp loopback test")
	}
	const n, f = 3, 1
	tnodes, nodes, surfaced := startMesh(t, n, f)

	rogue := dialRaw(t, tcpAddr(tnodes, 0), 2)
	defer rogue.Close()
	hdr := make([]byte, wire.HeaderLen)
	hdr[0] = wire.Version
	binary.BigEndian.PutUint32(hdr[1:], 0xFFFFFFF0) // ~4GiB claimed payload
	if _, err := rogue.Write(hdr); err != nil {
		t.Fatal(err)
	}
	err := waitForError(t, surfaced, "peer 2")
	if !errors.Is(err, wire.ErrFrameTooLarge) {
		t.Fatalf("surfaced error = %v, want ErrFrameTooLarge", err)
	}
	if err := nodes[1].Update([]byte("still-up")); err != nil {
		t.Fatalf("update after oversized frame: %v", err)
	}
}

// TestTCPUnknownTagSurfaced: a well-framed payload with an unregistered
// tag is a decode error, not a crash or a silent drop.
func TestTCPUnknownTagSurfaced(t *testing.T) {
	if testing.Short() {
		t.Skip("tcp loopback test")
	}
	const n, f = 3, 1
	tnodes, _, surfaced := startMesh(t, n, f)

	rogue := dialRaw(t, tcpAddr(tnodes, 0), 1)
	defer rogue.Close()
	var b wire.Buffer
	b.PutUvarint(0xEFFF) // below TestTagBase, never registered
	frame, err := wire.AppendFrame(nil, b.Bytes(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rogue.Write(frame); err != nil {
		t.Fatal(err)
	}
	serr := waitForError(t, surfaced, "peer 1")
	if !errors.Is(serr, wire.ErrUnknownTag) {
		t.Fatalf("surfaced error = %v, want ErrUnknownTag", serr)
	}
}

// TestTCPRecordedErrorsAreBounded: with no OnError hook the node records
// dropped-connection errors for Errors(), and a peer that keeps
// reconnecting with garbage must not grow that record without bound —
// the first 64 are kept, the rest only counted.
func TestTCPRecordedErrorsAreBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("tcp loopback test")
	}
	tnodes, err := transport.LoopbackMesh(2, transport.TCPConfig{D: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, tn := range tnodes {
			tn.Close()
		}
	}()
	const kept, rogues = 64, 70
	for i := 0; i < rogues; i++ {
		rogue := dialRaw(t, tcpAddr(tnodes, 0), 1)
		if _, err := rogue.Write([]byte{0xFF, 0, 0, 0, 1, 42}); err != nil {
			t.Fatal(err)
		}
		// The node records the error before it closes the connection.
		rogue.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, rerr := rogue.Read(make([]byte, 1)); rerr == nil {
			t.Fatal("rogue connection still open after decode error")
		}
		rogue.Close()
	}
	errs := tnodes[0].Errors()
	if len(errs) != kept+1 {
		t.Fatalf("Errors() holds %d entries after %d drops, want %d and a count of the rest", len(errs), rogues, kept)
	}
	for _, err := range errs[:kept] {
		if !errors.Is(err, wire.ErrBadVersion) {
			t.Fatalf("recorded error = %v, want ErrBadVersion", err)
		}
	}
	if got := errs[kept].Error(); !strings.Contains(got, "6 further errors") {
		t.Fatalf("last entry = %q, want the count of the %d unrecorded errors", got, rogues-kept)
	}
}

// TestTCPReconnectAfterPeerRestart is the regression test for the
// crash-recovery rejoin path over TCP: when a peer's process dies and a
// new incarnation comes back on the same address, the surviving node's
// send loop must redial (its old outbound connection died with the old
// process) so the restarted peer receives the messages it is owed —
// without it, a recovered `aso node -wal` would starve on its first
// post-restart operation, never seeing the mesh's replies.
func TestTCPReconnectAfterPeerRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("tcp loopback test")
	}
	cfg := transport.TCPConfig{D: 5 * time.Millisecond}
	mesh, err := transport.LoopbackMesh(2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, b1 := mesh[0], mesh[1]
	defer a.Close()
	gotA := make(chan int, 16)
	gotB := make(chan int, 16)
	a.SetHandler(rtHandlerCapture(gotA))
	b1.SetHandler(rtHandlerCapture(gotB))

	recv := func(ch <-chan int, want int, when string) {
		t.Helper()
		select {
		case got := <-ch:
			if got != want {
				t.Fatalf("%s: delivered %d, want %d", when, got, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: no delivery of %d", when, want)
		}
	}
	a.Runtime().Send(1, transport.Hello{ID: 7})
	recv(gotB, 7, "before restart")

	// The peer's process dies; give the survivor's receive loop a moment
	// to observe the EOF and flag the outbound connection stale.
	b1.Close()
	time.Sleep(100 * time.Millisecond)

	// A new incarnation comes up on the same address. Its NewTCPNode
	// blocks until it reaches every peer, so once it returns the mesh is
	// re-formed from its side; the survivor's side must self-heal.
	gotB2 := make(chan int, 16)
	cfg.ID, cfg.Addrs = 1, []string{a.Addr(), b1.Addr()}
	if cfg.Listener, err = net.Listen("tcp", cfg.Addrs[1]); err != nil {
		t.Fatal(err)
	}
	b2, err := transport.NewTCPNode(cfg)
	if err != nil {
		t.Fatalf("restarted node: %v", err)
	}
	defer b2.Close()
	b2.SetHandler(rtHandlerCapture(gotB2))

	a.Runtime().Send(1, transport.Hello{ID: 8})
	recv(gotB2, 8, "after restart")
	// And the restarted incarnation reaches the survivor on fresh dials.
	b2.Runtime().Send(0, transport.Hello{ID: 9})
	recv(gotA, 9, "restarted node to survivor")
}

// rtHandlerCapture forwards the IDs of delivered Hello payloads.
func rtHandlerCapture(got chan<- int) rt.HandlerFunc {
	return func(src int, msg rt.Message) {
		if h, ok := msg.(transport.Hello); ok {
			got <- h.ID
		}
	}
}

// TestTCPCleanCloseSilent: a peer that just disconnects (crash-stop) must
// not surface a wire error.
func TestTCPCleanCloseSilent(t *testing.T) {
	if testing.Short() {
		t.Skip("tcp loopback test")
	}
	const n, f = 3, 1
	tnodes, _, surfaced := startMesh(t, n, f)

	rogue := dialRaw(t, tcpAddr(tnodes, 0), 2)
	rogue.Close()
	time.Sleep(100 * time.Millisecond)
	if errs := surfaced(); len(errs) != 0 {
		t.Fatalf("clean close surfaced errors: %v", errs)
	}
	_ = tnodes
}
