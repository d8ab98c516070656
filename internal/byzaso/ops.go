package byzaso

import (
	"sort"

	"mpsnap/internal/core"
	"mpsnap/internal/rt"
)

// announceTag raises the node's announcement goal to r and advances the
// ladder. Must run in an atomic context.
func (nd *Node) announceTag(r core.Tag) {
	if r > nd.selfGoal {
		nd.selfGoal = r
	}
	nd.ladder()
}

// tagQuorum broadcasts a MsgTagQuery for tag r and waits until n-f nodes
// acknowledge that their corroborated maxTag reached r.
func (nd *Node) tagQuorum(r core.Tag) error {
	var req int64
	nd.rt.Atomic(func() {
		nd.nextReq++
		req = nd.nextReq
		nd.tagAcks[req] = make(map[int]bool)
	})
	nd.rt.Broadcast(MsgTagQuery{ReqID: req, Tag: r})
	return nd.rt.WaitUntilThen("byz tag quorum",
		func() bool { return len(nd.tagAcks[req]) >= nd.quorum },
		func() { delete(nd.tagAcks, req) })
}

// latticeLoop runs lattice operations with nondecreasing tags until one is
// good (the renewal of the Byzantine variant: no borrowing, see the
// package comment).
func (nd *Node) latticeLoop(r core.Tag) (core.View, error) {
	for {
		nd.op.Phase("lattice")
		nd.rt.Atomic(func() {
			nd.stats.LatticeOps++
			nd.announceTag(r)
		})
		if err := nd.tagQuorum(r); err != nil {
			return core.View{}, err
		}
		nd.rt.Atomic(func() {
			nd.eq.ResetFromLog(nd.log, r, nd.quorum)
			nd.wait = &nd.eq
		})
		var good bool
		var view core.View
		err := nd.rt.WaitUntilThen("byz EQ predicate",
			nd.eq.Satisfied,
			func() {
				nd.wait = nil
				if nd.maxTag <= r {
					good = true
					// Freeze the quorum-held prefix so the view is a
					// zero-copy alias of the log (see core.ValueLog).
					nd.log.AdvanceFrontier(r)
					view = nd.log.ViewLE(r)
					if nd.OnGoodLattice != nil {
						nd.OnGoodLattice(r, view)
					}
				} else {
					r = nd.maxTag
				}
			})
		if err != nil {
			return core.View{}, err
		}
		if good {
			return view, nil
		}
	}
}

// Update writes payload to the caller's segment: RBC the value and its tag,
// wait until n-f nodes hold the value and acknowledge the tag, then run
// the lattice phase.
func (nd *Node) Update(payload []byte) error {
	_, _, err := nd.UpdateWithView(payload)
	return err
}

// UpdateWithView is Update, additionally returning the final lattice view
// and the written value's timestamp (used by the Byzantine SSO).
func (nd *Node) UpdateWithView(payload []byte) (view core.View, ts core.Timestamp, err error) {
	if nd.rt.Crashed() {
		return core.View{}, core.Timestamp{}, rt.ErrCrashed
	}
	nd.op.Start("update")
	defer func() { nd.op.End(err) }()
	nd.rt.Atomic(func() {
		nd.stats.Updates++
		ts = core.Timestamp{Tag: nd.maxTag + 1, Writer: nd.id}
		nd.haveCount[ts] = 0
		nd.rbc.Broadcast(encodeValue(core.Value{TS: ts, Payload: payload}))
		nd.announceTag(ts.Tag)
	})
	// Stability: the value is held by a quorum (so every later EQ view
	// can contain it) and the tag is corroborated at a quorum (so every
	// later readTag returns at least it).
	var req int64
	nd.rt.Atomic(func() {
		nd.nextReq++
		req = nd.nextReq
		nd.tagAcks[req] = make(map[int]bool)
	})
	nd.rt.Broadcast(MsgTagQuery{ReqID: req, Tag: ts.Tag})
	err = nd.rt.WaitUntilThen("byz update stable",
		func() bool { return len(nd.tagAcks[req]) >= nd.quorum && nd.haveCount[ts] >= nd.quorum },
		func() {
			delete(nd.tagAcks, req)
			delete(nd.haveCount, ts)
		})
	if err != nil {
		return core.View{}, ts, err
	}
	nd.op.Phase("stable")
	var r core.Tag
	nd.rt.Atomic(func() {
		r = ts.Tag
		if nd.maxTag > r {
			r = nd.maxTag
		}
	})
	view, err = nd.latticeLoop(r)
	return view, ts, err
}

// RefreshView runs one readTag + lattice loop and returns the obtained
// view (used by the Byzantine SSO to catch up until its own value is
// visible).
func (nd *Node) RefreshView() (core.View, error) {
	r, err := nd.readTag()
	if err != nil {
		return core.View{}, err
	}
	return nd.latticeLoop(r)
}

// readTag collects n-f corroborated maxTags and selects the (f+1)-th
// largest: at least one honest node vouches for it (liveness) and every
// completed operation's tag is covered by quorum intersection (safety).
func (nd *Node) readTag() (core.Tag, error) {
	nd.op.Phase("readTag")
	var req int64
	var st *readState
	nd.rt.Atomic(func() {
		nd.nextReq++
		req = nd.nextReq
		st = &readState{acks: make(map[int]core.Tag)}
		nd.readAcks[req] = st
	})
	nd.rt.Broadcast(MsgReadTag{ReqID: req})
	var r core.Tag
	err := nd.rt.WaitUntilThen("byz readTag quorum",
		func() bool { return len(st.acks) >= nd.quorum },
		func() {
			tags := make([]core.Tag, 0, len(st.acks))
			for _, t := range st.acks {
				tags = append(tags, t)
			}
			sort.Slice(tags, func(i, j int) bool { return tags[i] > tags[j] })
			r = tags[nd.f]
			if nd.maxTag > r {
				r = nd.maxTag // own corroborated maxTag is always safe
			}
			delete(nd.readAcks, req)
		})
	return r, err
}

// Scan returns one entry per segment; nil marks ⊥.
func (nd *Node) Scan() (res [][]byte, err error) {
	if nd.rt.Crashed() {
		return nil, rt.ErrCrashed
	}
	nd.op.Start("scan")
	defer func() { nd.op.End(err) }()
	nd.rt.Atomic(func() { nd.stats.Scans++ })
	r, err := nd.readTag()
	if err != nil {
		return nil, err
	}
	view, err := nd.latticeLoop(r)
	if err != nil {
		return nil, err
	}
	return view.Extract(nd.n), nil
}
