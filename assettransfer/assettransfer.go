// Package assettransfer implements the asset transfer object
// ("cryptocurrency") of Guerraoui et al. (reference [26]) on top of a
// snapshot object (obj is an mpsnap.Object, and it must be atomic — an
// ASO, not an SSO — for the no-double-spend argument), the application
// highlighted in the paper's abstract and conclusion.
//
// Each node owns one account. A node's segment holds its *outgoing
// transfer log*; an account balance is its initial funds plus incoming
// minus outgoing transfers computed from a SCAN. Because segments are
// single-writer and nodes are sequential, an owner can never double-spend:
// it validates its balance against an atomic snapshot and appends to its
// own log, and no one else can write that log. Consensus is not needed —
// exactly the observation of [26] that asset transfer has consensus
// number 1.
package assettransfer

import (
	"errors"
	"fmt"

	"mpsnap/internal/segment"
	"mpsnap/internal/wire"
)

// Transfer is one outgoing transfer.
type Transfer struct {
	To     int
	Amount uint64
}

// ErrInsufficientFunds rejects an overdraft.
var ErrInsufficientFunds = errors.New("assettransfer: insufficient funds")

// ErrBadAccount rejects an unknown account.
var ErrBadAccount = errors.New("assettransfer: unknown account")

var transfers = segment.List(segment.Codec[Transfer]{
	Put: func(b *wire.Buffer, tr Transfer) { b.PutInt(tr.To); b.PutUvarint(tr.Amount) },
	Get: func(d *wire.Decoder) Transfer { return Transfer{To: d.Int(), Amount: d.Uvarint()} },
}, 2)

// Ledger is one node's handle on the asset transfer object.
type Ledger struct {
	seg     *segment.Own[[]Transfer] // this node's outgoing log (single writer)
	id      int
	n       int
	initial []uint64
}

// New binds account id (of n) to the node's snapshot object. initial
// holds every account's genesis balance; all nodes must agree on it.
func New(obj segment.Object, id, n int, initial []uint64) (*Ledger, error) {
	if len(initial) != n {
		return nil, fmt.Errorf("assettransfer: %d initial balances for %d accounts", len(initial), n)
	}
	seg := segment.NewOwn(obj, id, "assettransfer", transfers)
	return &Ledger{seg: seg, id: id, n: n, initial: append([]uint64(nil), initial...)}, nil
}

// balances computes every account's balance from one SCAN.
func (l *Ledger) balances() ([]int64, error) {
	logs, err := l.seg.Scan()
	if err != nil {
		return nil, err
	}
	bal := make([]int64, l.n)
	for i := range bal {
		bal[i] = int64(l.initial[i])
	}
	for owner, log := range logs {
		if log == nil {
			continue
		}
		for _, tr := range *log {
			bal[owner] -= int64(tr.Amount)
			if tr.To >= 0 && tr.To < l.n {
				bal[tr.To] += int64(tr.Amount)
			}
		}
	}
	return bal, nil
}

// Balance reads an account's balance (one SCAN).
func (l *Ledger) Balance(account int) (uint64, error) {
	if account < 0 || account >= l.n {
		return 0, ErrBadAccount
	}
	bal, err := l.balances()
	if err != nil {
		return 0, err
	}
	if bal[account] < 0 {
		return 0, fmt.Errorf("assettransfer: negative balance %d for account %d (safety violation)", bal[account], account)
	}
	return uint64(bal[account]), nil
}

// Transfer moves amount from this node's account to account to. It scans
// to validate funds, then appends to the node's own log (one SCAN + one
// UPDATE).
func (l *Ledger) Transfer(to int, amount uint64) error {
	if to < 0 || to >= l.n {
		return ErrBadAccount
	}
	bal, err := l.Balance(l.id)
	if err != nil {
		return err
	}
	if bal < amount {
		return ErrInsufficientFunds
	}
	// A failed update may still take effect (crash during completion), so
	// the transfer stays in the local log either way (segment.Own.Put).
	return l.seg.Put(append(l.seg.Last(), Transfer{To: to, Amount: amount}))
}

// Outgoing returns a copy of this node's outgoing log.
func (l *Ledger) Outgoing() []Transfer { return append([]Transfer(nil), l.seg.Last()...) }
