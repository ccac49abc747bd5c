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

// Dropped returns the number of records compacted away so far.
func (ix *BlockIndex) Dropped() int { return ix.dropped }

// FirstSeenTimes returns every attached observer arrival time (nil when the
// index carries no arrival data). The map is shared and read-only; on an
// incremental index it is valid until the next append or merge.
func (ix *BlockIndex) FirstSeenTimes() map[chain.TxID]time.Time { return ix.firstSeen }

// WalletOwners returns the pool ownership of every identified reward wallet
// — the incremental map behind SelfInterestSets membership. The map is
// shared and read-only; on an incremental index it is valid until the next
// append.
func (ix *BlockIndex) WalletOwners() map[chain.Address]string { return ix.owner }
