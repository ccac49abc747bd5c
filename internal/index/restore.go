package index

import (
	"fmt"
	"time"

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
	// FirstSeen holds the merged observer arrival times for retained,
	// unconfirmed-at-checkpoint transactions.
	FirstSeen map[chain.TxID]time.Time
	// SourceSeen holds the per-source arrival ledger (transaction →
	// source ID → that source's earliest sighting), and Sources the
	// cumulative set of attributed source IDs ever merged — which can be a
	// superset of the ledger's sources once compaction pruned a source's
	// every observation.
	SourceSeen map[chain.TxID]map[string]time.Time
	Sources    []string
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
		FirstSeen:   ix.firstSeen,
		SourceSeen:  ix.sourceSeen,
		Sources:     ix.Sources(),
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
	ix.firstSeen = nil
	if len(st.FirstSeen) > 0 {
		ix.ObserveFirstSeen(st.FirstSeen)
	}
	ix.sourceSeen = nil
	ix.sources = nil
	if len(st.SourceSeen) > 0 {
		ix.sourceSeen = make(map[chain.TxID]map[string]time.Time, len(st.SourceSeen))
		ix.sources = make(map[string]bool)
		for id, bySrc := range st.SourceSeen {
			cp := make(map[string]time.Time, len(bySrc))
			for src, t := range bySrc {
				cp[src] = t
				ix.sources[src] = true
			}
			ix.sourceSeen[id] = cp
		}
	}
	// Sources is a superset of the ledger's keys when compaction pruned a
	// source's every observation; union it in rather than trusting either
	// alone (older checkpoints carry only the ledger).
	for _, s := range st.Sources {
		if ix.sources == nil {
			ix.sources = make(map[string]bool, len(st.Sources))
		}
		ix.sources[s] = true
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
