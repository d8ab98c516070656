package eqaso_test

import (
	"testing"
	"time"

	"mpsnap/internal/eqaso"
	"mpsnap/internal/transport"
)

// chanCluster builds n eqaso nodes (f = (n-1)/2) on a ChanNet with 20 µs
// link delays, every one installed as its node's handler.
func chanCluster(tb testing.TB, n int) []*eqaso.Node {
	tb.Helper()
	net := transport.NewChanNet(transport.ChanConfig{N: n, F: (n - 1) / 2, D: 20 * time.Microsecond})
	tb.Cleanup(net.Close)
	nodes := make([]*eqaso.Node, n)
	for i := range nodes {
		nodes[i] = eqaso.New(net.Runtime(i))
		net.SetHandler(i, nodes[i])
	}
	return nodes
}

// updateThenScan is one sequential client step: an update, then a scan.
func updateThenScan(tb testing.TB, nd *eqaso.Node, payload []byte) {
	if err := nd.Update(payload); err != nil {
		tb.Fatal(err)
	}
	if _, err := nd.Scan(); err != nil {
		tb.Fatal(err)
	}
}

// BenchmarkOperation: one client's Update then Scan on a 3-node ChanNet;
// allocs/op counts every allocation the cluster makes for the pair — the
// client's operations, the peers' handlers, the links — not only what the
// operations return.
func BenchmarkOperation(b *testing.B) {
	nodes := chanCluster(b, 3)
	payload := []byte("value")
	updateThenScan(b, nodes[0], payload) // the links and logs exist
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		updateThenScan(b, nodes[0], payload)
	}
}

// maxOperationAllocs bounds the allocations of one sequential Update+Scan
// on a 3-node ChanNet, cluster-wide: measured 133–149 over twelve runs at
// -cpu 1 and 2, and 185–193 when every operation step built its wait state
// (ack maps, an EQ tracker, closures). About a third is the links' delay
// timers and most of the rest boxes messages; the spread is the timers'.
const maxOperationAllocs = 160

// TestOperationAllocations pins what BenchmarkOperation measures: an
// operation's steps allocate no wait state, so what is left is what the
// operations return and the messages they send.
func TestOperationAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop records")
	}
	nodes := chanCluster(t, 3)
	payload := []byte("value")
	updateThenScan(t, nodes[0], payload)
	got := testing.AllocsPerRun(200, func() { updateThenScan(t, nodes[0], payload) })
	t.Logf("%.1f allocations per Update+Scan", got)
	if got > maxOperationAllocs {
		t.Errorf("a sequential Update+Scan allocates %.1f times, want <= %d", got, maxOperationAllocs)
	}
}
