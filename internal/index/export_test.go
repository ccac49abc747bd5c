package index

import (
	"time"

	"chainaudit/internal/chain"
	"chainaudit/internal/pipeline"
)

// Test seams. WithExecutor builds the serial/parallel equivalence pair; the
// accessors expose state the restore and retention tests compare between a
// restored or bounded index and its reference build.

// WithExecutor overrides the worker pool the batch sweep runs on (the
// default is a machine-sized pool). The result does not depend on the
// executor — the equivalence tests build with forced serial and forced
// parallel pools and require identical indexes.
func WithExecutor(e *pipeline.Executor) Option {
	return func(ix *BlockIndex) { ix.exec = e }
}

// ObserveFirstSeen merges anonymous observer arrival times:
// ObserveFirstSeenFrom(SourceAnonymous, seen).
func (ix *BlockIndex) ObserveFirstSeen(seen map[chain.TxID]time.Time) {
	ix.ObserveFirstSeenFrom(SourceAnonymous, seen)
}

// Dropped returns the number of records compacted away so far.
func (ix *BlockIndex) Dropped() int { return ix.dropped }

// ArenaLen returns the number of per-source entry slots the ledger holds,
// live and free: its storage, which grows with sightings, not with rows
// times sources.
func (l *Ledger) ArenaLen() int { return len(l.arena) }

// WalletOwners returns the pool ownership of every identified reward wallet
// — the incremental map behind SelfInterestSets membership. The map is
// shared and read-only; on an incremental index it is valid until the next
// append.
func (ix *BlockIndex) WalletOwners() map[chain.Address]string { return ix.owner }
