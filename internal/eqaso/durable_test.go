package eqaso

import (
	"errors"
	"testing"

	"mpsnap/internal/core"
	"mpsnap/internal/harness"
	"mpsnap/internal/rt"
	"mpsnap/internal/sim"
	"mpsnap/internal/wal"
)

// The durability discipline under test: a checkpoint or prune record forces
// no sync of its own; its act (the vouch, the PruneTo) follows whichever
// sync covers the record. durableCluster is a simulated cluster of WAL-
// attached nodes (gc on) that keeps a ledger of every file sync and every
// vouch, and checks at the instant of each act that the act's record is
// already in the durable prefix of the node's file.

type durableCluster struct {
	t     *testing.T
	c     *harness.Cluster
	nodes []*Node
	files []*wal.MemFile

	syncs    []int               // successful file syncs per node
	explicit []int               // of those, taken with fewer than batch records pending
	vouches  [][]core.Checkpoint // every MsgCkptVouch each node broadcast
	// failSync[i], when set, decides the fate of node i's k-th sync (1-based).
	failSync []func(k int) error
	// onVouch, when set, observes node i's vouch before it leaves.
	onVouch func(i int)
	// audit checks sync-before-act at every send and sync (it replays the
	// durable prefix each time: off for the long run).
	audit bool
}

// tapRuntime shows the ledger what a node sends.
type tapRuntime struct {
	rt.Runtime
	onSend func(rt.Message)
}

func (r tapRuntime) Send(dst int, m rt.Message) { r.onSend(m); r.Runtime.Send(dst, m) }
func (r tapRuntime) Broadcast(m rt.Message)     { r.onSend(m); r.Runtime.Broadcast(m) }

func newDurableCluster(t *testing.T, n, batch int, seed int64) *durableCluster {
	d := &durableCluster{
		t: t, audit: true,
		nodes: make([]*Node, n), files: make([]*wal.MemFile, n),
		syncs: make([]int, n), explicit: make([]int, n),
		vouches: make([][]core.Checkpoint, n), failSync: make([]func(int) error, n),
	}
	d.c = harness.Build(sim.Config{N: n, F: (n - 1) / 2, Seed: seed}, func(r rt.Runtime) (rt.Handler, harness.Object) {
		i := r.ID()
		f := wal.NewMemFile()
		attempts := 0
		f.SyncHook = func() error {
			attempts++
			if fail := d.failSync[i]; fail != nil {
				if err := fail(attempts); err != nil {
					return err
				}
			}
			// Not yet in effect: whatever the node has done so far it did
			// on the strength of the previous durable prefix.
			d.check(i)
			d.syncs[i]++
			if records(f.Bytes()[f.SyncedLen():]) < batch {
				d.explicit[i]++
			}
			return nil
		}
		nd := New(tapRuntime{Runtime: r, onSend: func(m rt.Message) {
			if v, ok := m.(MsgCkptVouch); ok {
				d.vouches[i] = append(d.vouches[i], v.Ck)
				if !d.durable(i, wal.RecCheckpoint, v.Ck) {
					t.Errorf("node %d vouched %+v before its checkpoint record was durable", i, v.Ck)
				}
				if d.onVouch != nil {
					d.onVouch(i)
				}
			}
			d.check(i)
		}})
		nd.AttachWAL(wal.NewWriter(f, batch), true)
		d.nodes[i], d.files[i] = nd, f
		return nd, nd
	})
	return d
}

func records(data []byte) int {
	recs, _, _ := wal.Replay(data)
	return len(recs)
}

// durable reports whether node i's durable prefix holds the given record.
func (d *durableCluster) durable(i int, kind byte, ck core.Checkpoint) bool {
	recs, _, _ := wal.Replay(d.files[i].Durable())
	for _, r := range recs {
		if r.Kind == kind && r.Ck == ck {
			return true
		}
	}
	return false
}

// check is the prune half of sync-before-act, evaluated inside node i's
// critical section: the log is never pruned below a prune record that is
// not durable, and never more often than there are durable prune records.
// Durability only grows at a sync and this runs just before each one takes
// effect, so a prune that ran ahead of its record is caught at the next
// sync or send, or by the end-of-run call.
func (d *durableCluster) check(i int) {
	nd := d.nodes[i]
	if !d.audit || nd == nil || nd.log.PrunedCount() == 0 {
		return
	}
	recs, _, _ := wal.Replay(d.files[i].Durable())
	var prunes int64
	var floor int
	for _, r := range recs {
		if r.Kind == wal.RecPrune {
			prunes++
			floor = max(floor, r.Ck.Count)
		}
	}
	if got := nd.log.Stats().Prunes; got > prunes || nd.log.PrunedCount() > floor {
		d.t.Errorf("node %d pruned %d times to %d with %d durable prune records, the highest at %d",
			i, got, nd.log.PrunedCount(), prunes, floor)
	}
}

// run drives the simulation to quiescence and audits the final state.
func (d *durableCluster) run() {
	d.t.Helper()
	if _, err := d.c.MustLinearizable(); err != nil {
		d.t.Fatal(err)
	}
	for i := range d.nodes {
		d.check(i)
	}
}

// TestUpdatePaysOneSync: k sequential updates cost the writer exactly k
// file syncs — the own values', the one a value waits for before it may be
// disseminated — and its peers only the every-batch-appends ones, although
// checkpoints are vouched and the log is pruned throughout. A checkpoint
// or a prune that forced its own sync — inside a lattice then-closure or a
// vouch handler — would read ≥ 3 per update here.
func TestUpdatePaysOneSync(t *testing.T) {
	const n, batch, k = 3, 8, 40
	d := newDurableCluster(t, n, batch, 1)
	done := false
	d.c.Client(0, func(o *harness.OpRunner) {
		for i := 0; i < k; i++ {
			if _, err := o.Update(); err != nil {
				t.Errorf("update %d: %v", i, err)
			}
		}
		done = true
	})
	for p := 1; p < n; p++ {
		d.c.Client(p, func(o *harness.OpRunner) {
			// Peers scan so that they checkpoint and vouch too, and a
			// global prune floor exists.
			for !done {
				if _, err := o.Scan(); err != nil {
					t.Errorf("scan: %v", err)
				}
				o.P.Sleep(5 * rt.TicksPerD)
			}
		})
	}
	d.run()
	if d.syncs[0] != k || d.explicit[0] != k {
		t.Errorf("writer: %d syncs (%d below the batch threshold) for %d updates, want exactly one each", d.syncs[0], d.explicit[0], k)
	}
	for p := 1; p < n; p++ {
		appends := records(d.files[p].Bytes())
		if d.explicit[p] != 0 || d.syncs[p] != appends/batch {
			t.Errorf("peer %d: %d syncs (%d below the batch threshold) for %d appends, want only the %d every-%d-appends ones",
				p, d.syncs[p], d.explicit[p], appends, appends/batch, batch)
		}
	}
	for i, nd := range d.nodes {
		st := nd.Stats()
		if st.VouchesSent == 0 || st.LogPrunes == 0 {
			t.Errorf("node %d: %d vouches, %d prunes: the run must exercise both acts", i, st.VouchesSent, st.LogPrunes)
		}
		if st.WALSyncs != int64(d.syncs[i]) || st.WALAppends != int64(records(d.files[i].Bytes())) {
			t.Errorf("node %d: Stats reports %d appends / %d syncs, the file saw %d / %d",
				i, st.WALAppends, st.WALSyncs, records(d.files[i].Bytes()), d.syncs[i])
		}
	}
}

// mixedWorkload has every node update and scan, so every node checkpoints,
// vouches and prunes, with a batch small enough that threshold syncs and
// own-value syncs interleave.
func mixedWorkload(t *testing.T, d *durableCluster, rounds int) {
	for i := range d.nodes {
		d.c.Client(i, func(o *harness.OpRunner) {
			for r := 0; r < rounds; r++ {
				if _, err := o.Update(); err != nil {
					if d.failSync[i] == nil {
						t.Errorf("node %d update %d: %v", i, r, err)
					}
					return // write-fenced by the injected power cut
				}
				if _, err := o.Scan(); err != nil {
					t.Errorf("node %d scan %d: %v", i, r, err)
				}
			}
		})
	}
}

// crashPoints runs the mixed workload once cleanly and then once per sync
// of node 0, cutting the power at that sync (wal's TestCrashPointSyncHook,
// with a live node on top): every run is audited act by act, and after a
// cut the durable prefix must recover to a state that still stands behind
// everything the node did — it vouches nothing it did not log, and has
// pruned at least as far.
func crashPoints(t *testing.T, verify func(d *durableCluster, st *wal.State)) {
	const n, batch, rounds = 3, 4, 6
	clean := newDurableCluster(t, n, batch, 7)
	mixedWorkload(t, clean, rounds)
	clean.run()
	if clean.syncs[0] < rounds {
		t.Fatalf("fixture: node 0 synced %d times", clean.syncs[0])
	}
	for failAt := 1; failAt <= clean.syncs[0]; failAt++ {
		d := newDurableCluster(t, n, batch, 7)
		d.failSync[0] = func(k int) error {
			if k >= failAt {
				return errors.New("power cut")
			}
			return nil
		}
		mixedWorkload(t, d, rounds)
		d.run()
		d.files[0].Crash()
		st := wal.Recover(d.files[0].Durable(), n, 0, nil)
		if st.TailErr != nil {
			t.Fatalf("failAt %d: durable prefix torn: %v", failAt, st.TailErr)
		}
		verify(d, st)
	}
}

// TestVouchFollowsDurableCheckpoint: at the instant of every MsgCkptVouch
// its checkpoint record is inside MemFile.Durable() (checked by the tap as
// each vouch leaves), at every crash point; and what was vouched before a
// power cut is vouched by the recovered log.
func TestVouchFollowsDurableCheckpoint(t *testing.T) {
	vouched := 0
	crashPoints(t, func(d *durableCluster, st *wal.State) {
		for _, ck := range d.vouches[0] {
			vouched++
			// Below the recovered prune point the prefix is globally agreed
			// and its digest no longer reconstructible.
			if ck.Count > st.Frontier.Count || (ck.Count >= st.Log.PrunedCount() && !st.Log.Vouches(ck)) {
				t.Errorf("node 0 vouched %+v, its WAL recovers to frontier %+v without it", ck, st.Frontier)
			}
		}
	})
	if vouched == 0 {
		t.Fatal("no vouch was observed")
	}
}

// TestPruneFollowsDurableRecord: whenever LogStats.Prunes has grown, the
// prune record is inside MemFile.Durable() (durableCluster.check, at every
// sync and send), at every crash point; and the recovered log has pruned
// at least as far as the live one had.
func TestPruneFollowsDurableRecord(t *testing.T) {
	pruned := 0
	crashPoints(t, func(d *durableCluster, st *wal.State) {
		live := d.nodes[0].log.PrunedCount()
		pruned += live
		if st.Log.PrunedCount() < live {
			t.Errorf("node 0 pruned to %d, its WAL recovers pruned to %d only", live, st.Log.PrunedCount())
		}
	})
	if pruned == 0 {
		t.Fatal("no prune was observed")
	}
}

// TestParkedVouchReleasedByBatchSync: a node that never updates has no sync
// of its own to ride, so its parked vouch leaves with the every-batch-
// appends sync — within batch admitted values of the frontier advance —
// and that is enough for garbage collection: with one writer and two peers
// that only scan, the prune floor keeps advancing and no log grows with
// the run.
func TestParkedVouchReleasedByBatchSync(t *testing.T) {
	const n, batch = 3, 8
	updates := 2000
	if testing.Short() {
		updates = 400
	}
	d := newDurableCluster(t, n, batch, 3)
	d.audit = false
	// The first scan-driven frontier advance of node 1: how many values it
	// had admitted when the checkpoint was parked, and when the vouch left.
	parkedAt, vouchedAt := -1, -1
	d.onVouch = func(i int) {
		if i == 1 && vouchedAt < 0 {
			vouchedAt = d.nodes[1].log.SelfLen()
		}
	}
	done := false
	maxRetained := 0
	d.c.Client(0, func(o *harness.OpRunner) {
		for i := 0; i < updates; i++ {
			if _, err := o.Update(); err != nil {
				t.Errorf("update %d: %v", i, err)
			}
		}
		done = true
	})
	for p := 1; p < n; p++ {
		d.c.Client(p, func(o *harness.OpRunner) {
			nd := d.nodes[p]
			for !done {
				if _, err := o.Scan(); err != nil {
					t.Errorf("scan: %v", err)
				}
				nd.rt.Atomic(func() {
					if p == 1 && parkedAt < 0 && nd.ckptSeq != 0 {
						parkedAt = nd.log.SelfLen()
						if vouchedAt >= 0 {
							t.Error("fixture: node 1 vouched before its first parked checkpoint was seen")
						}
					}
				})
				for _, x := range d.nodes {
					maxRetained = max(maxRetained, x.Memory().Retained)
				}
				o.P.Sleep(10 * rt.TicksPerD)
			}
		})
	}
	d.run()
	if parkedAt < 0 || vouchedAt < 0 || vouchedAt-parkedAt > batch {
		t.Errorf("node 1 parked a checkpoint at %d admitted values and vouched at %d, want within %d", parkedAt, vouchedAt, batch)
	}
	for p := 1; p < n; p++ {
		if d.explicit[p] != 0 {
			t.Errorf("peer %d took %d syncs below the batch threshold; it has no own values to sync", p, d.explicit[p])
		}
	}
	for i, nd := range d.nodes {
		m := nd.Memory()
		if m.Values < updates || m.Pruned < updates*9/10 {
			t.Errorf("node %d: %d of %d values pruned: the floor stalled", i, m.Pruned, m.Values)
		}
	}
	if maxRetained > 200 {
		t.Errorf("a log retained %d values during a %d-update run, want it bounded by the checkpoint lag, not the run", maxRetained, updates)
	}
}

// TestSyncErrorReleasesNothing: once a sync fails the writer latches, the
// durable record count never advances, and so a parked vouch and a parked
// prune stay parked however many values the node goes on to admit — and
// its own updates are fenced.
func TestSyncErrorReleasesNothing(t *testing.T) {
	const n, batch = 3, 64
	d := newDurableCluster(t, n, batch, 5)
	nd := d.nodes[0]
	cut := false
	d.failSync[0] = func(int) error {
		if cut {
			return errors.New("disk gone")
		}
		return nil
	}
	var atCut Stats
	var ckptSeq, pruneSeq int64
	fenced := false
	d.c.Client(0, func(o *harness.OpRunner) {
		for i := 0; i < 3; i++ {
			if _, err := o.Update(); err != nil {
				t.Errorf("update %d: %v", i, err)
			}
		}
		// The last update's renewal checkpoint is parked; wait for the
		// peers' vouches to park a prune next to it, then pull the disk.
		err := nd.rt.WaitUntilThen("both acts parked",
			func() bool { return nd.ckptSeq != 0 && nd.pruneSeq != 0 },
			func() {
				cut = true
				atCut, ckptSeq, pruneSeq = nd.stats, nd.ckptSeq, nd.pruneSeq
			})
		if err != nil {
			t.Errorf("wait: %v", err)
		}
		if _, err := o.Update(); err == nil {
			t.Error("update succeeded although its value could not be made durable")
		}
		fenced = true
	})
	for p := 1; p < n; p++ {
		d.c.Client(p, func(o *harness.OpRunner) {
			// Enough values after the cut to cross the batch threshold on
			// node 0 several times over (and a bound, should the fixture
			// never get both acts parked).
			for i, after := 0, 0; after < 3*batch && i < 1000; i++ {
				if fenced {
					after++
				}
				if _, err := o.Update(); err != nil {
					t.Errorf("peer %d update %d: %v", p, i, err)
				}
			}
		})
	}
	d.run()
	if !cut {
		t.Fatal("fixture: node 0 never had both acts parked")
	}
	st := nd.Stats()
	if st.VouchesSent != atCut.VouchesSent || st.LogPrunes != atCut.LogPrunes {
		t.Errorf("released after the sync error: vouches %d → %d, prunes %d → %d",
			atCut.VouchesSent, st.VouchesSent, atCut.LogPrunes, st.LogPrunes)
	}
	if nd.ckptSeq != ckptSeq || nd.pruneSeq != pruneSeq {
		t.Errorf("parked acts (%d, %d) became (%d, %d)", ckptSeq, pruneSeq, nd.ckptSeq, nd.pruneSeq)
	}
	if nd.wal.Err() == nil || nd.wal.Counters().Durable >= min(ckptSeq, pruneSeq) {
		t.Errorf("writer err %v, durable %d: the parked records must never become durable", nd.wal.Err(), nd.wal.Counters().Durable)
	}
}
