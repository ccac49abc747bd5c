// Package index builds the shared audit index every analysis layer
// consumes. The paper's pipeline is a one-pass derivation of (position,
// fee-rate, arrival, attribution) facts that many statistical tests then
// read; the index mirrors that structurally: each block is distilled once
// into a BlockRecord (pool attribution, observed and predicted positions,
// per-block PPE, fee-rate array, CPFP flags), and the audits in
// internal/core become cheap consumers instead of each re-walking the chain.
//
// The index has two construction modes sharing one code path. Build runs
// the batch sweep: records are derived in parallel and ingested serially in
// height order. NewIncremental starts an empty index that grows one block
// at a time via AppendBlock — the streaming path — where ingesting a record
// updates the per-pool aggregates, reward-address and self-interest maps
// incrementally. Build is exactly an AppendBlock loop with the record
// derivation parallelized, so batch and streaming indexes over the same
// blocks are identical by construction.
//
// A Build result is immutable and safe for concurrent readers. An
// incremental index mutates on AppendBlock/ObserveFirstSeen: callers must
// serialize appends against reads (internal/serve holds a per-dataset
// RWMutex).
package index

import (
	"sort"
	"time"

	"chainaudit/internal/chain"
	"chainaudit/internal/pipeline"
	"chainaudit/internal/poolid"
)

// Positions caches a block's per-transaction observed and predicted ranks
// among its audited (non-CPFP, non-coinbase) transactions. It is the
// canonical position analysis behind PPE, SPPE, and the dark-fee detector;
// internal/core's per-block helpers delegate here.
type Positions struct {
	// IDs holds the audited transactions in observed order.
	IDs []chain.TxID
	// Observed and Predicted are 0-based ranks keyed by txid.
	Observed  map[chain.TxID]int
	Predicted map[chain.TxID]int
}

// N returns the number of audited transactions.
func (p *Positions) N() int { return len(p.IDs) }

// AnalyzeBlock computes observed and predicted positions for the block's
// auditable transactions. CPFP transactions are excluded (their placement is
// dependency-driven, not norm-driven — the paper discards them), as is the
// coinbase. Prediction sorts by fee-rate descending, the greedy GBT norm;
// ties keep observed order (the norm does not constrain ties).
func AnalyzeBlock(b *chain.Block) *Positions { return analyzeBlock(b, b.CPFPSet()) }

// analyzeBlock is AnalyzeBlock over the block's precomputed CPFP set.
func analyzeBlock(b *chain.Block, cpfp map[chain.TxID]bool) *Positions {
	body := b.Body()
	info := &Positions{
		Observed:  make(map[chain.TxID]int),
		Predicted: make(map[chain.TxID]int),
	}
	type ranked struct {
		id   chain.TxID
		rate chain.SatPerVByte
		obs  int
	}
	var audit []ranked
	for _, tx := range body {
		if cpfp[tx.ID] {
			continue
		}
		audit = append(audit, ranked{id: tx.ID, rate: tx.FeeRate(), obs: len(audit)})
	}
	for _, r := range audit {
		info.IDs = append(info.IDs, r.id)
		info.Observed[r.id] = r.obs
	}
	sort.SliceStable(audit, func(i, j int) bool { return audit[i].rate > audit[j].rate })
	for i, r := range audit {
		info.Predicted[r.id] = i
	}
	return info
}

// PPE returns the block's position prediction error (§4.2.2): the mean
// absolute difference between predicted and observed positions, normalized
// by the audited count and expressed as a percentage. ok is false for blocks
// with no auditable transactions.
func (p *Positions) PPE() (ppe float64, ok bool) {
	n := p.N()
	if n == 0 {
		return 0, false
	}
	sum := 0.0
	for _, id := range p.IDs {
		d := p.Predicted[id] - p.Observed[id]
		if d < 0 {
			d = -d
		}
		sum += float64(d)
	}
	return sum * 100 / (float64(n) * float64(n)), true
}

// PercentileRank converts a 0-based rank among n items to a percentile in
// [0, 100]. A single-item block puts its transaction at the 0th percentile.
func PercentileRank(rank, n int) float64 {
	if n <= 1 {
		return 0
	}
	return float64(rank) * 100 / float64(n-1)
}

// SPPE returns the signed position prediction error of one audited
// transaction: predicted percentile minus observed percentile, in
// [-100, 100]. ok is false when the transaction is not auditable here.
//
//lint:allow deadcode oracle: core's per-transaction TxSPPE reference (core/oracle_test.go) reads it, and TestBlockSPPEsMatchesTxSPPE holds core.BlockSPPEs to it
func (p *Positions) SPPE(id chain.TxID) (sppe float64, ok bool) {
	obs, okObs := p.Observed[id]
	if !okObs {
		return 0, false
	}
	n := p.N()
	return PercentileRank(p.Predicted[id], n) - PercentileRank(obs, n), true
}

// BlockRecord holds everything the one-pass sweep derived for one block.
type BlockRecord struct {
	Block *chain.Block
	// Pool is the block's coinbase-marker attribution (poolid.Unknown when
	// unrecognized).
	Pool string
	// Positions is the cached position analysis of the block.
	Positions *Positions
	// PPE is the block's position prediction error; PPEValid is false for
	// blocks with no auditable transactions.
	PPE      float64
	PPEValid bool
	// CPFP flags the block's child-pays-for-parent transactions.
	CPFP map[chain.TxID]bool
	// FeeRates holds the body transactions' fee-rates in committed order,
	// aligned with Block.Body().
	FeeRates []chain.SatPerVByte
}

// BlockIndex is the one-pass index over a chain. Batch indexes (Build) are
// immutable; incremental indexes (NewIncremental) grow via AppendBlock with
// every derived aggregate updated in place.
type BlockIndex struct {
	chain    *chain.Chain
	registry *poolid.Registry
	records  []BlockRecord
	// byPool maps pool name to the indices of its blocks in height order.
	byPool map[string][]int
	// poolCounts is the running per-pool tally; shares is its sorted
	// materialization, refreshed after every ingest.
	poolCounts map[string]*poolid.Share
	shares     []poolid.Share
	// firstSeen carries observer arrival times (see ObserveFirstSeen).
	firstSeen map[chain.TxID]time.Time
	// sourceSeen keeps the per-source arrival ledger alongside the merged
	// min-time view: for each transaction, when each attributed observation
	// source first reported it. Anonymous arrivals (ObserveFirstSeen, or
	// ObserveFirstSeenFrom with SourceAnonymous) merge into firstSeen only —
	// an unattributed feed has no vantage identity to compare, so it never
	// grows a ledger entry. sources is the cumulative set of attributed
	// source IDs ever observed; both survive retention compaction for
	// unconfirmed transactions exactly as firstSeen does.
	sourceSeen map[chain.TxID]map[string]time.Time
	sources    map[string]bool
	exec       *pipeline.Executor
	appendFn   func(*chain.Chain, *chain.Block) error

	// rewardAddr, owner, and selfSets are maintained incrementally: each
	// ingested block contributes its reward address, and a newly discovered
	// pool wallet triggers a one-address rescan of earlier blocks so
	// retroactive self-interest membership matches the batch result.
	rewardAddr map[string]map[chain.Address]bool
	owner      map[chain.Address]string
	selfSets   map[string]map[chain.TxID]bool

	// retain bounds the retained records (0 = keep everything; see
	// WithRetention). ingested counts every record ever ingested — the
	// denominator for hash-rate shares, immune to compaction — and dropped
	// counts the records compacted past the horizon.
	retain   int
	ingested int64
	dropped  int
}

// Option configures an index.
type Option func(*BlockIndex)

// WithAppender overrides how AppendBlock extends the underlying chain (the
// default is chain.Append, full validation). Streaming ingest of
// single-edge frames uses dataset.AppendLoose so a replayed stream lands on
// the same chain a CSV round trip produces.
func WithAppender(f func(*chain.Chain, *chain.Block) error) Option {
	return func(ix *BlockIndex) { ix.appendFn = f }
}

// WithRetention bounds the index to the most recent n block records
// (0 = unbounded). After each append past the horizon the oldest record is
// compacted away together with the first-seen entries of the transactions
// it confirmed. The retained records are the audit horizon: every audit in
// internal/core reads them and nothing else, so a full audit of a retained
// index covers exactly the last n blocks, and windowed audits over any
// window ≤ n are unaffected by compaction. Non-audit aggregates survive
// it: pool shares keep the full-history denominator (ingested, not
// retained, blocks) and the incremental reward-address/self-interest maps
// are already folded. The underlying chain is not compacted.
func WithRetention(n int) Option {
	if n < 0 {
		n = 0
	}
	return func(ix *BlockIndex) { ix.retain = n }
}

func newIndex(c *chain.Chain, reg *poolid.Registry, opts ...Option) *BlockIndex {
	ix := &BlockIndex{
		chain:      c,
		registry:   reg,
		byPool:     make(map[string][]int),
		poolCounts: make(map[string]*poolid.Share),
		rewardAddr: make(map[string]map[chain.Address]bool),
		owner:      make(map[chain.Address]string),
		selfSets:   make(map[string]map[chain.TxID]bool),
	}
	for _, opt := range opts {
		opt(ix)
	}
	return ix
}

// Build runs the batch sweep: every block is attributed and
// position-analyzed exactly once, in parallel over a machine-sized worker
// pool, then ingested serially in height order through the same per-record
// path AppendBlock uses. Records land at their block's index, so the result
// is identical to a serial sweep — and to an incremental index fed the same
// blocks one at a time.
func Build(c *chain.Chain, reg *poolid.Registry, opts ...Option) *BlockIndex {
	ix := newIndex(c, reg, opts...)
	blocks := c.Blocks()
	recs := make([]BlockRecord, len(blocks))
	exec := ix.exec
	if exec == nil {
		exec = pipeline.Default()
	}
	exec.Each(len(blocks), func(i int) {
		recs[i] = buildRecord(blocks[i], reg)
	})
	// Serial ingestion keeps the derived orderings identical to the
	// historical per-audit computations.
	for i := range recs {
		ix.ingestRecord(recs[i])
	}
	ix.compact()
	ix.refreshShares()
	return ix
}

// NewIncremental returns an empty index over a fresh chain, ready to grow
// one block at a time via AppendBlock. The registry attributes blocks as
// they arrive. Appends and reads must be serialized by the caller.
func NewIncremental(reg *poolid.Registry, opts ...Option) *BlockIndex {
	ix := newIndex(chain.New(), reg, opts...)
	ix.refreshShares()
	return ix
}

// buildRecord derives one block's record — the embarrassingly parallel part
// of the sweep, shared verbatim by Build and AppendBlock.
func buildRecord(b *chain.Block, reg *poolid.Registry) BlockRecord {
	cpfp := b.CPFPSet()
	rec := BlockRecord{
		Block:     b,
		Pool:      reg.AttributeBlock(b),
		Positions: analyzeBlock(b, cpfp),
		CPFP:      cpfp,
	}
	rec.PPE, rec.PPEValid = rec.Positions.PPE()
	body := b.Body()
	rec.FeeRates = make([]chain.SatPerVByte, len(body))
	for j, tx := range body {
		rec.FeeRates[j] = tx.FeeRate()
	}
	return rec
}

// AppendBlock extends the underlying chain with the block (default
// chain.Append; see WithAppender), derives its record, and folds it into
// every aggregate the index maintains. On error the index is unchanged.
// The returned record is shared with the index and read-only.
func (ix *BlockIndex) AppendBlock(b *chain.Block) (*BlockRecord, error) {
	appendFn := ix.appendFn
	if appendFn == nil {
		appendFn = (*chain.Chain).Append
	}
	if err := appendFn(ix.chain, b); err != nil {
		return nil, err
	}
	ix.ingestRecord(buildRecord(b, ix.registry))
	ix.compact()
	ix.refreshShares()
	// The pointer is taken after compaction: the newest record survives any
	// copy-down, but its slot may have moved.
	return &ix.records[len(ix.records)-1], nil
}

// ingestRecord folds one derived record into the index's aggregates — the
// serial part of the sweep, shared verbatim by Build and AppendBlock. Must
// be called in height order.
func (ix *BlockIndex) ingestRecord(rec BlockRecord) {
	i := len(ix.records)
	ix.records = append(ix.records, rec)
	ix.ingested++
	ix.byPool[rec.Pool] = append(ix.byPool[rec.Pool], i)
	s := ix.poolCounts[rec.Pool]
	if s == nil {
		s = &poolid.Share{Pool: rec.Pool}
		ix.poolCounts[rec.Pool] = s
	}
	s.Blocks++
	s.Txs += int64(len(rec.Block.Body()))

	// Reward-address bookkeeping (Figure 8a) and self-interest ownership
	// (§5.2). A reward address newly seen for an identified pool becomes a
	// known pool wallet; blocks already ingested are rescanned for that one
	// address, so late wallet discovery credits earlier transactions exactly
	// as a batch build over the full chain would. Pools rotate a small,
	// bounded wallet set, so rescans are rare and the amortized cost of the
	// incremental path stays linear.
	if addr := rec.Block.RewardAddress(); addr != "" {
		set := ix.rewardAddr[rec.Pool]
		if set == nil {
			set = make(map[chain.Address]bool)
			ix.rewardAddr[rec.Pool] = set
		}
		if !set[addr] {
			set[addr] = true
			if rec.Pool != poolid.Unknown {
				if _, taken := ix.owner[addr]; !taken {
					ix.owner[addr] = rec.Pool
					for j := 0; j < i; j++ {
						ix.creditAddress(&ix.records[j], addr, rec.Pool)
					}
				}
			}
		}
	}
	for _, tx := range rec.Block.Body() {
		for _, in := range tx.Inputs {
			ix.creditTx(tx.ID, in.Address)
		}
		for _, o := range tx.Outputs {
			ix.creditTx(tx.ID, o.Address)
		}
	}
}

// creditTx marks the transaction as self-interested for the pool owning the
// address, if any.
func (ix *BlockIndex) creditTx(id chain.TxID, addr chain.Address) {
	pool, ok := ix.owner[addr]
	if !ok {
		return
	}
	set := ix.selfSets[pool]
	if set == nil {
		set = make(map[chain.TxID]bool)
		ix.selfSets[pool] = set
	}
	set[id] = true
}

// creditAddress rescans one already-ingested block for a newly discovered
// pool wallet.
func (ix *BlockIndex) creditAddress(rec *BlockRecord, addr chain.Address, pool string) {
	for _, tx := range rec.Block.Body() {
		for _, in := range tx.Inputs {
			if in.Address == addr {
				ix.creditTx(tx.ID, in.Address)
			}
		}
		for _, o := range tx.Outputs {
			if o.Address == addr {
				ix.creditTx(tx.ID, o.Address)
			}
		}
	}
}

// compact drops records older than the retention horizon: their first-seen
// entries are pruned, byPool indices remapped, and the record slots zeroed
// so the evicted Positions/FeeRates/CPFP data is released rather than
// pinned by the backing array. Aggregates (poolCounts, ingested, owner,
// selfSets) are untouched — they were folded at ingest time — which is what
// keeps shares and windowed verdicts byte-identical across compaction.
func (ix *BlockIndex) compact() {
	if ix.retain <= 0 || len(ix.records) <= ix.retain {
		return
	}
	k := len(ix.records) - ix.retain
	if len(ix.firstSeen) > 0 || len(ix.sourceSeen) > 0 {
		for r := 0; r < k; r++ {
			for _, tx := range ix.records[r].Block.Txs {
				delete(ix.firstSeen, tx.ID)
				delete(ix.sourceSeen, tx.ID)
			}
		}
	}
	for pool, idxs := range ix.byPool {
		kept := idxs[:0]
		for _, i := range idxs {
			if i >= k {
				kept = append(kept, i-k)
			}
		}
		ix.byPool[pool] = kept
	}
	n := copy(ix.records, ix.records[k:])
	tail := ix.records[n:]
	for i := range tail {
		tail[i] = BlockRecord{}
	}
	ix.records = ix.records[:n]
	ix.dropped += k
}

// refreshShares rematerializes the sorted per-pool share slice from the
// running tallies: block count descending, ties by name — the same ordering
// poolid.EstimateShares produces. The hash-rate denominator is the count of
// blocks ever ingested, not retained, so retention compaction never moves a
// share.
func (ix *BlockIndex) refreshShares() {
	ix.shares = ix.shares[:0]
	for _, s := range ix.poolCounts {
		cp := *s
		if ix.ingested > 0 {
			cp.HashRate = float64(cp.Blocks) / float64(ix.ingested)
		}
		ix.shares = append(ix.shares, cp)
	}
	sort.Slice(ix.shares, func(i, j int) bool {
		if ix.shares[i].Blocks != ix.shares[j].Blocks {
			return ix.shares[i].Blocks > ix.shares[j].Blocks
		}
		return ix.shares[i].Pool < ix.shares[j].Pool
	})
}

// SourceAnonymous is the reserved source ID legacy (v1) feeds are attributed
// to: observations carrying it merge into the merged min-time view but are
// not ledgered per source — a feed that never identified its vantage point
// cannot participate in cross-source divergence comparison.
const SourceAnonymous = "_anon"

// ObserveFirstSeen merges observer arrival times into the index (streaming
// mempool snapshots). The earliest sighting of a transaction wins, and the
// caller's map is never retained or mutated. Arrivals observed this way are
// anonymous — equivalent to ObserveFirstSeenFrom(SourceAnonymous, seen).
func (ix *BlockIndex) ObserveFirstSeen(seen map[chain.TxID]time.Time) {
	ix.ObserveFirstSeenFrom(SourceAnonymous, seen)
}

// ObserveFirstSeenFrom merges observer arrival times attributed to one
// observation source. The merged min-time view (FirstSeen) always takes the
// earliest sighting across every source; in addition, for any source other
// than SourceAnonymous, the per-source ledger records the earliest time that
// particular source reported each transaction — the raw material of the
// cross-source divergence audit. An empty source is treated as anonymous.
func (ix *BlockIndex) ObserveFirstSeenFrom(source string, seen map[chain.TxID]time.Time) {
	if len(seen) == 0 {
		return
	}
	if ix.firstSeen == nil {
		ix.firstSeen = make(map[chain.TxID]time.Time, len(seen))
	}
	attributed := source != "" && source != SourceAnonymous
	if attributed {
		if ix.sourceSeen == nil {
			ix.sourceSeen = make(map[chain.TxID]map[string]time.Time, len(seen))
		}
		if ix.sources == nil {
			ix.sources = make(map[string]bool)
		}
		ix.sources[source] = true
	}
	for id, t := range seen {
		if prev, ok := ix.firstSeen[id]; !ok || t.Before(prev) {
			ix.firstSeen[id] = t
		}
		if !attributed {
			continue
		}
		bySrc := ix.sourceSeen[id]
		if bySrc == nil {
			bySrc = make(map[string]time.Time, 1)
			ix.sourceSeen[id] = bySrc
		}
		if prev, ok := bySrc[source]; !ok || t.Before(prev) {
			bySrc[source] = t
		}
	}
}

// Chain returns the indexed chain.
func (ix *BlockIndex) Chain() *chain.Chain { return ix.chain }

// Registry returns the attribution registry the index was built with.
func (ix *BlockIndex) Registry() *poolid.Registry { return ix.registry }

// Len returns the number of retained block records.
func (ix *BlockIndex) Len() int { return len(ix.records) }

// Retention returns the configured retention horizon in blocks (0 =
// unbounded).
func (ix *BlockIndex) Retention() int { return ix.retain }

// Ingested returns the number of blocks ever ingested, including records
// compacted past the retention horizon — the hash-rate denominator.
func (ix *BlockIndex) Ingested() int64 { return ix.ingested }

// Record returns the i-th block's record (height order). The record is
// shared and must not be modified.
func (ix *BlockIndex) Record(i int) *BlockRecord { return &ix.records[i] }

// Records returns all block records in height order, shared and read-only.
// On an incremental index the slice is valid until the next append.
func (ix *BlockIndex) Records() []BlockRecord { return ix.records }

// Shares returns the per-pool block/transaction counts and hash-rate
// estimates, ordered by block count descending (ties by name) — the same
// ordering poolid.EstimateShares produces. Shared and read-only; on an
// incremental index the slice is valid until the next append.
func (ix *BlockIndex) Shares() []poolid.Share { return ix.shares }

// HashRateOf returns the estimated hash rate of the named pool, or 0.
func (ix *BlockIndex) HashRateOf(pool string) float64 {
	return poolid.HashRateOf(ix.shares, pool)
}

// TopPoolsByShare lists pool names whose estimated hash rate meets the
// threshold, ordered by share descending, excluding Unknown — the roster the
// differential audits test.
func (ix *BlockIndex) TopPoolsByShare(minShare float64) []string {
	var out []string
	for _, s := range ix.shares {
		if s.Pool == poolid.Unknown || s.HashRate < minShare {
			continue
		}
		out = append(out, s.Pool)
	}
	sort.SliceStable(out, func(i, j int) bool {
		return ix.HashRateOf(out[i]) > ix.HashRateOf(out[j])
	})
	return out
}

// PoolRecords returns the indices (height order) of the named pool's blocks.
func (ix *BlockIndex) PoolRecords(pool string) []int { return ix.byPool[pool] }

// LocateRecord returns the record index of the block confirming the
// transaction. ok is false for unconfirmed transactions.
func (ix *BlockIndex) LocateRecord(id chain.TxID) (int, bool) {
	loc, ok := ix.chain.Locate(id)
	if !ok || len(ix.records) == 0 {
		return 0, false
	}
	off := loc.Height - ix.records[0].Block.Height
	if off < 0 || off >= int64(len(ix.records)) {
		return 0, false
	}
	return int(off), true
}

// FirstSeen returns the attached observer arrival time for the transaction;
// ok is false when the index carries no arrival data or the transaction was
// never seen.
//
//lint:allow deadcode seam: the index, observer, serve and stream tests read merged arrival times through it (TestObserveFirstSeen, TestChainSourceIndexSinkMatchesBatch, TestIngestV2SourceAttribution, TestApplySnapshotRule)
func (ix *BlockIndex) FirstSeen(id chain.TxID) (time.Time, bool) {
	t, ok := ix.firstSeen[id]
	return t, ok
}

// SourceFirstSeen returns the per-source arrival times recorded for the
// transaction: when each attributed observation source first reported it.
// nil when no attributed source has seen it. The map is shared and
// read-only; on an incremental index it is valid until the next append or
// merge.
//
//lint:allow deadcode seam: the index, serve and stream tests read per-source arrival times through it (TestSourceLedgerAttributionAndMerge, TestIngestV2SourceAttribution, TestApplySnapshotRule)
func (ix *BlockIndex) SourceFirstSeen(id chain.TxID) map[string]time.Time {
	return ix.sourceSeen[id]
}

// SourceSeenTimes returns the whole per-source arrival ledger (nil when no
// attributed observations were merged). Outer key: transaction; inner key:
// source ID. Shared and read-only; on an incremental index it is valid
// until the next append or merge.
func (ix *BlockIndex) SourceSeenTimes() map[chain.TxID]map[string]time.Time {
	return ix.sourceSeen
}

// Sources returns the attributed observation source IDs ever merged into
// the index, sorted — cumulative across retention compaction, like the
// ingest counters.
func (ix *BlockIndex) Sources() []string {
	if len(ix.sources) == 0 {
		return nil
	}
	out := make([]string, 0, len(ix.sources))
	for s := range ix.sources {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// RewardAddresses returns the distinct coinbase reward addresses each pool
// used across the chain (Figure 8a), maintained incrementally as blocks are
// ingested. The maps are shared and read-only; on an incremental index they
// are valid until the next append.
func (ix *BlockIndex) RewardAddresses() map[string]map[chain.Address]bool {
	return ix.rewardAddr
}

// SelfInterestSets returns, for each pool, the confirmed transactions in
// which the pool's reward wallets are a party (sender or receiver) — the
// paper's §5.2 methodology — maintained incrementally as blocks are
// ingested. The maps are shared and read-only; on an incremental index they
// are valid until the next append.
func (ix *BlockIndex) SelfInterestSets() map[string]map[chain.TxID]bool {
	return ix.selfSets
}
