// Package mempool implements the pool of pending (uncommitted) transactions
// a node maintains: admission with a configurable minimum fee-rate policy
// (norm III), in-pool ancestry tracking for CPFP-aware block templates,
// removal on confirmation, and the 15-second snapshot stream the paper's
// observers record.
package mempool

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"chainaudit/internal/chain"
)

// Entry is one pending transaction together with node-local metadata.
type Entry struct {
	Tx *chain.Tx
	// FirstSeen is when this node first received the transaction. It can
	// differ across nodes due to propagation delays; the paper's
	// violation-pair test tightens its time constraint by ε for exactly
	// this reason.
	FirstSeen time.Time
	// parents are in-pool transactions whose outputs this entry spends.
	parents []*Entry
	// children are in-pool transactions spending this entry's outputs.
	children []*Entry
}

// Parents returns the in-pool parents. The slice is shared; do not modify.
func (e *Entry) Parents() []*Entry { return e.parents }

// Children returns the in-pool children. The slice is shared; do not modify.
func (e *Entry) Children() []*Entry { return e.children }

// Ancestors returns the transitive in-pool ancestor set of e (excluding e).
func (e *Entry) Ancestors() map[chain.TxID]*Entry {
	out := make(map[chain.TxID]*Entry)
	var walk func(*Entry)
	walk = func(cur *Entry) {
		for _, p := range cur.parents {
			if _, seen := out[p.Tx.ID]; !seen {
				out[p.Tx.ID] = p
				walk(p)
			}
		}
	}
	walk(e)
	return out
}

// Option configures a Pool.
type Option func(*Pool)

// WithMinFeeRate sets the admission threshold (default: chain.MinRelayFeeRate,
// i.e. 1 sat/vB). Use 0 to accept zero-fee transactions, as the paper's
// data set B node was configured.
func WithMinFeeRate(r chain.SatPerVByte) Option {
	return func(p *Pool) { p.minFeeRate = r }
}

// WithCapacity sets the block capacity snapshots judge congestion against
// (default: mainnet 1 MB).
func WithCapacity(c int64) Option {
	return func(p *Pool) { p.capacity = c }
}

// Pool is a node's mempool. It is not safe for concurrent use; the
// simulator is single-threaded and the p2p node serializes access.
type Pool struct {
	minFeeRate chain.SatPerVByte
	capacity   int64
	entries    map[chain.TxID]*Entry
	// spenders indexes in-pool entries by the outpoints they spend, for
	// conflict (double-spend) detection.
	spenders map[chain.OutPoint]*Entry
	// vsize is the running sum of every entry's Tx.VSize. Add and Remove,
	// the only writers of entries, are its only writers.
	vsize int64
}

// New creates an empty pool with the default minimum fee-rate policy.
func New(opts ...Option) *Pool {
	p := &Pool{
		minFeeRate: chain.MinRelayFeeRate,
		entries:    make(map[chain.TxID]*Entry),
		spenders:   make(map[chain.OutPoint]*Entry),
	}
	for _, o := range opts {
		o(p)
	}
	return p
}

// Errors returned by Add.
var (
	ErrBelowMinFee = errors.New("mempool: fee-rate below admission threshold")
	ErrDuplicate   = errors.New("mempool: transaction already present")
	ErrConflict    = errors.New("mempool: conflicts with an in-pool transaction")
)

// Add admits a transaction at the given local receipt time. It returns
// ErrBelowMinFee when the fee-rate is under the policy threshold,
// ErrDuplicate for known transactions, and ErrConflict when another pending
// transaction already spends one of the same outpoints.
func (p *Pool) Add(tx *chain.Tx, seen time.Time) error {
	if err := tx.Validate(); err != nil {
		return err
	}
	if tx.IsCoinbase() {
		return fmt.Errorf("%w: coinbase cannot enter the mempool", chain.ErrInvalidTx)
	}
	if _, dup := p.entries[tx.ID]; dup {
		return ErrDuplicate
	}
	if tx.FeeRate() < p.minFeeRate {
		return fmt.Errorf("%w: %.4f < %.4f sat/vB", ErrBelowMinFee, float64(tx.FeeRate()), float64(p.minFeeRate))
	}
	for _, in := range tx.Inputs {
		if other := p.spenders[in.PrevOut]; other != nil {
			return fmt.Errorf("%w: outpoint %s:%d already spent by %s",
				ErrConflict, in.PrevOut.TxID.Short(), in.PrevOut.Index, other.Tx.ID.Short())
		}
	}
	e := &Entry{Tx: tx, FirstSeen: seen}
	for _, in := range tx.Inputs {
		p.spenders[in.PrevOut] = e
		if parent := p.entries[in.PrevOut.TxID]; parent != nil {
			e.parents = append(e.parents, parent)
			parent.children = append(parent.children, e)
		}
	}
	p.entries[tx.ID] = e
	p.vsize += tx.VSize
	return nil
}

// Remove deletes the transaction (typically on confirmation). Children
// remaining in the pool lose the parent link, matching a node's view after
// the parent confirms. It reports whether the transaction was present.
func (p *Pool) Remove(id chain.TxID) bool {
	e, ok := p.entries[id]
	if !ok {
		return false
	}
	delete(p.entries, id)
	p.vsize -= e.Tx.VSize
	for _, in := range e.Tx.Inputs {
		delete(p.spenders, in.PrevOut)
	}
	for _, c := range e.children {
		c.parents = deleteEntry(c.parents, e)
	}
	for _, par := range e.parents {
		par.children = deleteEntry(par.children, e)
	}
	return true
}

func deleteEntry(s []*Entry, e *Entry) []*Entry {
	for i, v := range s {
		if v == e {
			return append(s[:i], s[i+1:]...)
		}
	}
	return s
}

// RemoveConfirmed removes every transaction of the block from the pool and
// returns how many were present.
func (p *Pool) RemoveConfirmed(b *chain.Block) int {
	n := 0
	for _, tx := range b.Body() {
		if p.Remove(tx.ID) {
			n++
		}
	}
	return n
}

// RemoveConflicts evicts pending transactions that spend an outpoint the
// block's transactions consumed — the losers of double-spend races, which
// can never confirm once the block lands. Their dependent descendants go
// with them. It returns how many entries were evicted.
func (p *Pool) RemoveConflicts(b *chain.Block) int {
	n := 0
	for _, tx := range b.Body() {
		for _, in := range tx.Inputs {
			loser := p.spenders[in.PrevOut]
			if loser == nil || loser.Tx.ID == tx.ID {
				continue
			}
			desc := descendantsOf(loser)
			if p.Remove(loser.Tx.ID) {
				n++
			}
			for _, d := range desc {
				if p.Remove(d.Tx.ID) {
					n++
				}
			}
		}
	}
	return n
}

// Get returns the entry for id, or nil.
func (p *Pool) Get(id chain.TxID) *Entry { return p.entries[id] }

// Contains reports whether the transaction is pending.
func (p *Pool) Contains(id chain.TxID) bool {
	_, ok := p.entries[id]
	return ok
}

// Len returns the number of pending transactions.
func (p *Pool) Len() int { return len(p.entries) }

// TotalVSize returns the aggregate virtual size of all pending transactions
// — the paper's "Mempool size", compared against the 1 MB block capacity to
// define congestion. It is a running total, O(1).
func (p *Pool) TotalVSize() int64 { return p.vsize }

// TopFeeRate returns the highest fee-rate among pending transactions, or 0
// for an empty pool. A maximum does not depend on iteration order, so the
// scan skips the sort Entries pays for.
func (p *Pool) TopFeeRate() chain.SatPerVByte {
	var top chain.SatPerVByte
	for _, e := range p.entries {
		if r := e.Tx.FeeRate(); r > top {
			top = r
		}
	}
	return top
}

// Unsorted returns all pending entries in map order, which differs from
// call to call. It is for callers whose result is a function of the entry
// set, such as every gbt template policy; it skips the sort Entries pays
// for a deterministic order. The entries are shared with the pool.
func (p *Pool) Unsorted() []*Entry {
	out := make([]*Entry, 0, len(p.entries))
	//lint:allow maporder the order is the caller's to ignore: template policies order by (score, TxID), a total order, and TestTemplatesMatchOracle (internal/gbt) and TestBuildBlockIgnoresEntryOrder (internal/miner) hold their output equal under shuffled entries
	for _, e := range p.entries {
		out = append(out, e)
	}
	return out
}

// Entries returns all pending entries in deterministic order (by first-seen
// time, ties broken by ID). The entries are shared with the pool.
func (p *Pool) Entries() []*Entry {
	out := make([]*Entry, 0, len(p.entries))
	for _, e := range p.entries {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].FirstSeen.Equal(out[j].FirstSeen) {
			return out[i].FirstSeen.Before(out[j].FirstSeen)
		}
		return out[i].Tx.ID.Less(out[j].Tx.ID)
	})
	return out
}
