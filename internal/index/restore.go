package index

import (
	"fmt"

	"chainaudit/internal/chain"
	"chainaudit/internal/poolid"
)

// RestoreState is everything an incremental index needs to resume exactly
// where a previous process left off: the retained block window plus the
// cumulative aggregates that span blocks already compacted past the
// retention horizon. internal/serve serializes one of these per streaming
// set at every checkpoint; on boot RestoreIncremental rebuilds the index and
// WAL replay supplies only the suffix appended since.
type RestoreState struct {
	// Blocks is the retained record window in height order. For an
	// unbounded index this is every block ever appended; for a retained one
	// it is the suffix the horizon kept (the underlying chain restarts at
	// the window's first height — full-chain audits over a restored
	// retained index see the retained horizon only, exactly as they do
	// after live compaction).
	Blocks []*chain.Block
	// Ingested and Dropped carry the compaction counters: Ingested is the
	// hash-rate denominator (blocks ever ingested), Dropped the records
	// compacted away.
	Ingested int64
	Dropped  int
	// Shares is the cumulative per-pool tally, authoritative over whatever
	// replaying Blocks alone would produce (compacted blocks still count).
	Shares []poolid.Share
	// Seen is the arrival ledger: merged and per-source sightings of the
	// transactions still held, and the cumulative source names — a superset
	// of the sources with a sighting once compaction pruned a source's
	// every observation. nil restores an empty ledger.
	Seen *Ledger
	// RewardAddrs, Owners, and SelfSets are the incremental attribution
	// maps, which fold in contributions from compacted blocks and must
	// therefore be restored wholesale rather than re-derived.
	RewardAddrs map[string]map[chain.Address]bool
	Owners      map[chain.Address]string
	SelfSets    map[string]map[chain.TxID]bool
}

// Snapshot captures the index's restorable state. Slices and maps are shared
// with the index and read-only: callers must serialize (or deep-copy) the
// snapshot before the next append, under the same lock that guards appends.
func (ix *BlockIndex) Snapshot() RestoreState {
	blocks := make([]*chain.Block, len(ix.records))
	for i := range ix.records {
		blocks[i] = ix.records[i].Block
	}
	return RestoreState{
		Blocks:      blocks,
		Ingested:    ix.ingested,
		Dropped:     ix.dropped,
		Shares:      ix.shares,
		Seen:        &ix.seen,
		RewardAddrs: ix.rewardAddr,
		Owners:      ix.owner,
		SelfSets:    ix.selfSets,
	}
}

// RestoreIncremental rebuilds an incremental index from a checkpointed
// RestoreState: the retained blocks are re-appended through the normal
// ingest path (re-deriving records, positions, and per-pool groupings), then
// the cumulative aggregates — compaction counters, pool tallies, arrival
// times, wallet attribution — are overwritten wholesale from the state,
// because they fold in blocks the retention horizon already compacted away.
// The state's maps are deep-copied, so the restored index never aliases the
// snapshot source. Options mirror NewIncremental and must match the ones the
// checkpointed index was built with (appender, retention) for the resumed
// index to behave identically.
func RestoreIncremental(reg *poolid.Registry, st RestoreState, opts ...Option) (*BlockIndex, error) {
	ix := NewIncremental(reg, opts...)
	for _, b := range st.Blocks {
		if _, err := ix.AppendBlock(b); err != nil {
			return nil, fmt.Errorf("index: restore block %d: %w", b.Height, err)
		}
	}
	ix.ingested = st.Ingested
	ix.dropped = st.Dropped
	ix.poolCounts = make(map[string]*poolid.Share, len(st.Shares))
	for _, s := range st.Shares {
		ix.poolCounts[s.Pool] = &poolid.Share{Pool: s.Pool, Blocks: s.Blocks, Txs: s.Txs}
	}
	ix.seen = Ledger{}
	if st.Seen != nil {
		ix.seen = *st.Seen.Clone()
	}
	ix.rewardAddr = make(map[string]map[chain.Address]bool, len(st.RewardAddrs))
	for pool, set := range st.RewardAddrs {
		cp := make(map[chain.Address]bool, len(set))
		for a, v := range set {
			cp[a] = v
		}
		ix.rewardAddr[pool] = cp
	}
	ix.owner = make(map[chain.Address]string, len(st.Owners))
	for a, pool := range st.Owners {
		ix.owner[a] = pool
	}
	ix.selfSets = make(map[string]map[chain.TxID]bool, len(st.SelfSets))
	for pool, set := range st.SelfSets {
		cp := make(map[chain.TxID]bool, len(set))
		for id, v := range set {
			cp[id] = v
		}
		ix.selfSets[pool] = cp
	}
	ix.refreshShares()
	return ix, nil
}
