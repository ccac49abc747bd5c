package mempool

import (
	"errors"
	"sort"
	"time"

	"chainaudit/internal/chain"
)

// Replace-by-fee and capacity management. The paper's introduction singles
// out conflicting transactions — "at most one of the transactions can be
// included in the blockchain; for such transactions, the order in which a
// miner chooses to include transactions will determine the ultimate state
// of the system" — so the pool supports the two policies real nodes use
// when conflicts and pressure arise: BIP-125-style replacement, and
// lowest-fee-rate eviction when the pool outgrows its budget.

// ErrReplacementUnderpriced reports an RBF attempt that does not pay the
// required premium over the transactions it would replace.
var ErrReplacementUnderpriced = errors.New("mempool: replacement underpriced")

// MinReplacementBump is the multiplicative fee-rate premium a replacement
// must pay over the best conflicting transaction (BIP-125 rule analogue).
const MinReplacementBump = 1.1

// AddOrReplace admits tx like Add, but when tx conflicts with pending
// transactions it applies replace-by-fee: if tx's fee-rate exceeds every
// conflicting transaction's fee-rate by at least MinReplacementBump, the
// conflicts and their now-orphaned descendants are evicted and tx enters.
// The evicted transactions are returned in eviction order.
func (p *Pool) AddOrReplace(tx *chain.Tx, seen time.Time) ([]*chain.Tx, error) {
	conflicts := p.conflictsOf(tx)
	if len(conflicts) == 0 {
		return nil, p.Add(tx, seen)
	}
	rate := float64(tx.FeeRate())
	for _, c := range conflicts {
		if rate < float64(c.Tx.FeeRate())*MinReplacementBump {
			return nil, ErrReplacementUnderpriced
		}
	}
	var evicted []*chain.Tx
	for _, c := range conflicts {
		// Children first would leave dangling links mid-walk; Remove
		// handles unlinking, so evict the conflict then its descendants.
		desc := descendantsOf(c)
		if p.Remove(c.Tx.ID) {
			evicted = append(evicted, c.Tx)
		}
		for _, d := range desc {
			if p.Remove(d.Tx.ID) {
				evicted = append(evicted, d.Tx)
			}
		}
	}
	if err := p.Add(tx, seen); err != nil {
		return evicted, err
	}
	return evicted, nil
}

// conflictsOf returns the distinct pending entries spending any of tx's
// outpoints.
func (p *Pool) conflictsOf(tx *chain.Tx) []*Entry {
	seen := make(map[chain.TxID]bool)
	var out []*Entry
	for _, in := range tx.Inputs {
		if other := p.spenders[in.PrevOut]; other != nil && !seen[other.Tx.ID] {
			seen[other.Tx.ID] = true
			out = append(out, other)
		}
	}
	return out
}

// descendantsOf returns the transitive in-pool descendants of e (excluding
// e itself), parents before children.
func descendantsOf(e *Entry) []*Entry {
	var out []*Entry
	seen := make(map[chain.TxID]bool)
	var walk func(*Entry)
	walk = func(cur *Entry) {
		for _, c := range cur.children {
			if !seen[c.Tx.ID] {
				seen[c.Tx.ID] = true
				out = append(out, c)
				walk(c)
			}
		}
	}
	walk(e)
	return out
}

// EvictToSize shrinks the pool to at most maxVSize virtual bytes by
// evicting the lowest-fee-rate transactions (each with its dependent
// descendants, which cannot stand alone), the way Bitcoin Core trims an
// over-budget mempool. It returns the evicted transactions. The whole trim
// is one O(n log n) pass regardless of how many victims it takes.
func (p *Pool) EvictToSize(maxVSize int64) []*chain.Tx {
	if maxVSize < 0 {
		maxVSize = 0
	}
	if p.vsize <= maxVSize {
		return nil
	}
	// Snapshot ascending by fee-rate (ties by ID for determinism).
	order := make([]*Entry, 0, len(p.entries))
	for _, e := range p.entries {
		order = append(order, e)
	}
	sort.Slice(order, func(i, j int) bool {
		ri, rj := order[i].Tx.FeeRate(), order[j].Tx.FeeRate()
		if ri != rj {
			return ri < rj
		}
		return order[i].Tx.ID.Less(order[j].Tx.ID)
	})
	var evicted []*chain.Tx
	for _, victim := range order {
		if p.vsize <= maxVSize {
			break
		}
		if !p.Contains(victim.Tx.ID) {
			continue // already gone as someone's descendant
		}
		desc := descendantsOf(victim)
		if p.Remove(victim.Tx.ID) {
			evicted = append(evicted, victim.Tx)
		}
		for _, d := range desc {
			if p.Remove(d.Tx.ID) {
				evicted = append(evicted, d.Tx)
			}
		}
	}
	return evicted
}
