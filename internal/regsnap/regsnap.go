// Package regsnap implements the register-vector quorum engine behind two
// atomic snapshot objects that differ only in how a SCAN's first collect
// may return:
//
//   - acr: amortized constant-round scans through a committed-snapshot
//     cache, in the style of "Amortized Constant Round Atomic Snapshot in
//     Message-Passing Systems" (arXiv 2008.11837);
//   - fastsnap: a single-collect SCAN under low contention, in the style
//     of the fast-path construction of "Asynchronous Latency and Fast
//     Atomic Snapshot" (arXiv 2408.02562).
//
// # The shared core
//
// Servers hold one register per writer — the writer's latest (seq,
// payload) pair, merged componentwise by maximum sequence number, so every
// server vector grows monotonically — plus a *committed cache*: the
// componentwise maximum of every committed snapshot vector they have
// seen. Committed vectors are folded into the registers before the cache,
// so the cache is always covered by the register vector on the same
// server.
//
// UPDATE replicates the writer's new register state to a quorum of n−f
// servers (one round). SCAN broadcasts a collect and applies the engine's
// first-collect rule (below) to the first n−f replies. When the rule does
// not fire the scanner enters the push loop: broadcast PUSH(M), M the
// merge of the replies; receivers merge M into their registers and reply
// with their full vectors — the push doubles as the next collect. If a
// quorum of replies is identical, that vector is announced with a
// fire-and-forget COMMIT — refreshing the caches — and returned; if not,
// the scanner merges the replies and pushes again. A pusher that sees its
// own committed cache grow to cover M0 — the merge of its first collect —
// adopts that committed vector and finishes, which bounds the slow path
// whenever any scanner or a previous round succeeded.
//
// The invariant every return path preserves: a returned vector is
// unanimously held by a quorum when it is first returned. Hence
//
//   - any two returned vectors are comparable (the two unanimous quorums
//     intersect, and the common server's vector is monotone), so scans
//     are totally ordered;
//   - a completed UPDATE reached n−f servers, which intersect any later
//     scan's quorum, so the update is contained in every scan that starts
//     after it completes;
//   - a scan returned before another starts is quorum-held throughout the
//     later scan, which therefore returns a superset;
//   - an adopted vector is a committed one, so it is comparable with every
//     returned vector, and it covers M0, which (quorum intersection with
//     the first collect) contains every update that completed before the
//     scan started — adoption is linearizable.
//
// # The two first-collect rules
//
// fastsnap (unanimous): if the first n−f reply vectors are *identical*,
// commit and return that vector — one round. Collect replies carry no
// cache.
//
// acr (cacheCovers): each collect reply also carries the server's
// committed cache, which the scanner folds into its own registers and
// cache. Let M be the merge of the reply vectors and C the componentwise
// maximum of the reply caches. If C == M (by sequence numbers), return C
// in one round with no broadcast: C is a committed vector and it covers
// M. This is the amortized fast path: once any scan commits a vector
// covering the current registers, every subsequent scan with no
// concurrent updates is one round; the scan that finds the cache stale
// pays the push round that refreshes it.
//
// Fidelity notes. acr is a documented reconstruction of its paper's
// amortization idea (cache the last committed snapshot; scans pay the
// multi-round synchronization only when the cache is stale) on this
// repository's runtime model, not a transcription of its pseudocode.
// fastsnap is likewise a reconstruction of its paper's one-round fast
// path, not a transcription — the slow path here is the push-to-unanimity
// loop with committed-view helping rather than the paper's exact
// fallback. Under sustained contention a slow-path scan converges once
// the sampled quorum quiesces for one round or any commit covering its
// first merge arrives; the chaos harness's crash-abort sweeps bound the
// run either way. Both are validated against the (A1)-(A4)
// linearizability checker under fuzzed schedules and chaos fault mixes.
package regsnap

import (
	"mpsnap/internal/engine"
	"mpsnap/internal/rt"
)

// Entry is one writer's register: the latest sequence number and payload.
// Seq 0 with nil Val is the initial ⊥.
type Entry struct {
	Seq int64
	Val []byte
}

// Stats counts operations and scan paths taken.
type Stats struct {
	Updates      int64
	Scans        int64
	FastScans    int64 // one-round scans: the first-collect rule fired
	SlowScans    int64 // scans that needed push rounds
	AdoptedScans int64 // slow scans finished by adopting a committed vector
	Rounds       int64 // total collect + push rounds across scans
}

// rule is the first-collect rule — the one thing that separates the two
// engines. It also decides whether collect replies carry (and scanners
// fold) the committed cache: only cacheCovers reads it.
type rule int

const (
	cacheCovers rule = iota
	unanimous
)

// engineName is the registry name of the engine each rule makes.
var engineName = [...]string{cacheCovers: "acr", unanimous: "fastsnap"}

func init() {
	engine.Register(engine.Info{
		Name: engineName[cacheCovers],
		Doc:  "amortized constant-round scans via a committed-snapshot cache (arXiv 2008.11837)",
		New:  func(r rt.Runtime) engine.Engine { return newNode(r, cacheCovers) },
	})
	engine.Register(engine.Info{
		Name: engineName[unanimous],
		Doc:  "one-round SCAN fast path under low contention, write-back slow path (arXiv 2408.02562)",
		New:  func(r rt.Runtime) engine.Engine { return newNode(r, unanimous) },
	})
}

// Node is one node of either engine: the server registers and committed
// cache plus the client operations. One server thread (HandleMessage) and
// one client thread (Update/Scan), per the rt contract.
type Node struct {
	rtm    rt.Runtime
	n      int
	quorum int
	rule   rule

	// Wait labels (deadlock diagnostics), built once so waits allocate
	// nothing.
	writeWait, collectWait string

	// Server state, touched by the handler and under rtm.Atomic only.
	regs      []Entry // per-writer maxima
	committed []Entry // componentwise max of all committed vectors seen
	acks      map[int64]int
	colls     map[int64]*collectState

	mySeq   int64 // this node's own sequence counter (client thread, under Atomic)
	nextReq int64
	stats   Stats

	// Operation instrumentation; owned by the client thread.
	op rt.OpTrace
}

// newNode creates a node of the engine the first-collect rule makes on a
// runtime; install it as the node's message handler before operating on it.
func newNode(r rt.Runtime, first rule) *Node {
	n, name := r.N(), engineName[first]
	return &Node{
		rtm:         r,
		n:           n,
		quorum:      n - r.F(),
		rule:        first,
		writeWait:   name + " write quorum",
		collectWait: name + " collect quorum",
		regs:        make([]Entry, n),
		committed:   make([]Entry, n),
		acks:        make(map[int64]int),
		colls:       make(map[int64]*collectState),
		op:          rt.NewOpTrace(r),
	}
}

// Stats returns a snapshot of the node's counters.
func (nd *Node) Stats() Stats {
	var st Stats
	nd.rtm.Atomic(func() { st = nd.stats })
	return st
}

// SetObserver installs an operation observer. Events emitted: "update"
// and "scan" lifecycles with phases "collect" and "push" in between.
func (nd *Node) SetObserver(o rt.Observer) { nd.op.SetObserver(o) }

// collectState accumulates one collect or push round's replies.
type collectState struct {
	count   int
	uniform bool    // all replies so far carry identical seq vectors
	first   []Entry // the first reply — the unanimity candidate
	merge   []Entry // componentwise max of all reply vectors
	com     []Entry // cacheCovers first collect: max of all reply caches
	adopted []Entry // set at capture time when the round ends by adoption
}

func cloneVec(vec []Entry) []Entry { return append([]Entry(nil), vec...) }

// sameSeqs reports componentwise sequence equality (payloads are
// determined by (writer, seq): a writer never reuses a sequence number).
func sameSeqs(a, b []Entry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Seq != b[i].Seq {
			return false
		}
	}
	return true
}

// covers reports a ⊇ b componentwise.
func covers(a, b []Entry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Seq < b[i].Seq {
			return false
		}
	}
	return true
}

// mergeInto folds src into dst componentwise by maximum seq.
func mergeInto(dst, src []Entry) {
	for i := 0; i < len(src) && i < len(dst); i++ {
		if src[i].Seq > dst[i].Seq {
			dst[i] = src[i]
		}
	}
}

// HandleMessage implements rt.Handler (server thread; the runtime
// serializes it with Atomic sections).
func (nd *Node) HandleMessage(src int, m rt.Message) {
	switch msg := m.(type) {
	case MsgWrite:
		if src >= 0 && src < nd.n && msg.Seq > nd.regs[src].Seq {
			nd.regs[src] = Entry{Seq: msg.Seq, Val: msg.Val}
		}
		nd.rtm.Send(src, MsgWriteAck{ReqID: msg.ReqID})
	case MsgWriteAck:
		if _, ok := nd.acks[msg.ReqID]; ok {
			nd.acks[msg.ReqID]++
		}
	case MsgCollect:
		ack := MsgCollectAck{ReqID: msg.ReqID, Vec: cloneVec(nd.regs)}
		if nd.rule == cacheCovers {
			ack.Com = cloneVec(nd.committed)
		}
		nd.rtm.Send(src, ack)
	case MsgPush:
		mergeInto(nd.regs, msg.Vec)
		nd.rtm.Send(src, MsgCollectAck{ReqID: msg.ReqID, Vec: cloneVec(nd.regs)})
	case MsgCollectAck:
		st, ok := nd.colls[msg.ReqID]
		if !ok || len(msg.Vec) != nd.n || (len(msg.Com) != 0 && len(msg.Com) != nd.n) {
			return
		}
		if st.count == 0 {
			st.first = cloneVec(msg.Vec)
			st.merge = cloneVec(msg.Vec)
			st.uniform = true
		} else {
			if !sameSeqs(msg.Vec, st.first) {
				st.uniform = false
			}
			mergeInto(st.merge, msg.Vec)
		}
		st.count++
		if nd.rule == cacheCovers && len(msg.Com) != 0 {
			mergeInto(st.com, msg.Com)
			// Spread commit knowledge: reply caches refresh this node's
			// too — registers first, so the cache stays covered by them.
			mergeInto(nd.regs, msg.Com)
			mergeInto(nd.committed, msg.Com)
		}
	case MsgCommit:
		if len(msg.Vec) != nd.n {
			return
		}
		// Registers first: the cache must stay covered by the registers.
		mergeInto(nd.regs, msg.Vec)
		mergeInto(nd.committed, msg.Vec)
	}
}

// Update writes payload into this node's own segment: one write round to
// a quorum.
func (nd *Node) Update(payload []byte) error {
	return nd.UpdateBatch([][]byte{payload})
}

// UpdateBatch folds a batch of this node's payloads into one write round.
// Only the last payload is replicated: the earlier ones are superseded
// within the batch, so no scan can return them — they linearize
// consecutively right before the final write, exactly as consecutive
// single updates whose values were overwritten before any scan.
func (nd *Node) UpdateBatch(payloads [][]byte) error {
	if len(payloads) == 0 {
		return nil
	}
	if nd.rtm.Crashed() {
		return rt.ErrCrashed
	}
	nd.op.Start("update")
	err := nd.write(payloads[len(payloads)-1])
	nd.op.End(err)
	return err
}

func (nd *Node) write(payload []byte) error {
	var req, seq int64
	nd.rtm.Atomic(func() {
		nd.mySeq++
		seq = nd.mySeq
		nd.nextReq++
		req = nd.nextReq
		nd.acks[req] = 0
		nd.stats.Updates++
	})
	nd.rtm.Broadcast(MsgWrite{ReqID: req, Seq: seq, Val: payload})
	return nd.rtm.WaitUntilThen(nd.writeWait,
		func() bool { return nd.acks[req] >= nd.quorum },
		func() { delete(nd.acks, req) })
}

// Scan returns an atomic snapshot of all n segments. Fast path: one
// collect round on which the engine's first-collect rule fires. Slow
// path: push rounds until unanimity (then commit), or adoption of a
// committed vector covering the first collect's merge.
func (nd *Node) Scan() ([][]byte, error) {
	if nd.rtm.Crashed() {
		return nil, rt.ErrCrashed
	}
	nd.op.Start("scan")
	vec, err := nd.scan()
	nd.op.End(err)
	if err != nil {
		return nil, err
	}
	out := make([][]byte, nd.n)
	for i, e := range vec {
		if e.Seq > 0 {
			out[i] = e.Val
		}
	}
	return out, nil
}

func (nd *Node) scan() ([]Entry, error) {
	nd.rtm.Atomic(func() { nd.stats.Scans++ })
	nd.op.Phase("collect")
	st, err := nd.round(nil, nil)
	if err != nil {
		return nil, err
	}
	switch {
	case nd.rule == cacheCovers && sameSeqs(st.com, st.merge):
		// The largest committed vector already covers every register the
		// collect saw: return it in one round, nothing to announce.
		nd.rtm.Atomic(func() { nd.stats.FastScans++; nd.stats.Rounds++ })
		return st.com, nil
	case nd.rule == unanimous && st.uniform:
		nd.rtm.Atomic(func() { nd.stats.FastScans++; nd.stats.Rounds++ })
		nd.rtm.Broadcast(MsgCommit{Vec: st.first})
		return st.first, nil
	}
	// Slow path. m0 — the merge of the first collect — contains every
	// update that completed before this scan started; any committed
	// vector covering it is an admissible result.
	m0 := st.merge
	cur := st.merge
	rounds := int64(1)
	for {
		nd.op.Phase("push")
		rounds++
		st, err = nd.round(cur, m0)
		if err != nil {
			return nil, err
		}
		if st.adopted != nil {
			nd.rtm.Atomic(func() { nd.stats.AdoptedScans++; nd.stats.SlowScans++; nd.stats.Rounds += rounds })
			return st.adopted, nil
		}
		if st.uniform {
			nd.rtm.Atomic(func() { nd.stats.SlowScans++; nd.stats.Rounds += rounds })
			nd.rtm.Broadcast(MsgCommit{Vec: st.first})
			return st.first, nil
		}
		cur = st.merge
	}
}

// round runs one collect (push == nil) or push round and captures its
// replies. With want set, the wait also completes as soon as the node's
// committed cache covers want (adoption).
func (nd *Node) round(push, want []Entry) (*collectState, error) {
	var req int64
	var st *collectState
	nd.rtm.Atomic(func() {
		nd.nextReq++
		req = nd.nextReq
		st = &collectState{}
		if nd.rule == cacheCovers && push == nil {
			st.com = make([]Entry, nd.n)
		}
		nd.colls[req] = st
	})
	if push == nil {
		nd.rtm.Broadcast(MsgCollect{ReqID: req})
	} else {
		nd.rtm.Broadcast(MsgPush{ReqID: req, Vec: push})
	}
	var out collectState
	err := nd.rtm.WaitUntilThen(nd.collectWait,
		func() bool {
			if st.count >= nd.quorum {
				return true
			}
			return want != nil && covers(nd.committed, want)
		},
		func() {
			if want != nil && covers(nd.committed, want) && !(st.count >= nd.quorum && st.uniform) {
				out.adopted = cloneVec(nd.committed)
			} else {
				out = *st
			}
			delete(nd.colls, req)
		})
	if err != nil {
		return nil, err
	}
	return &out, nil
}
