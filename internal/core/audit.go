package core

import (
	"sort"
	"sync"

	"chainaudit/internal/chain"
	"chainaudit/internal/index"
	"chainaudit/internal/poolid"
	"chainaudit/internal/stats"
)

// Auditor bundles the chain and pool attribution for running the paper's
// full audit pipeline with one call site. Every audit reads one shared
// index.BlockIndex, built lazily on first use (or supplied prebuilt via
// NewIndexedAuditor): the index's retained block records are the only audit
// state, so the chain is attributed and position-analyzed exactly once no
// matter how many audits run, and a retention-bounded streaming index is
// audited over exactly the horizon it retains. Last narrows an auditor to
// the most recent records — the sliding-window audits. The Audit* methods
// taking an AuditOptions struct (options.go) are the canonical API.
type Auditor struct {
	Chain    *chain.Chain
	Registry *poolid.Registry

	idx     *index.BlockIndex
	idxOnce sync.Once
	// last bounds the audited records to the index's most recent last
	// retained records (0 = all of them); see Last.
	last int
}

// NewAuditor creates an auditor with the default pool registry.
func NewAuditor(c *chain.Chain) *Auditor {
	return &Auditor{Chain: c, Registry: poolid.DefaultRegistry()}
}

// NewIndexedAuditor creates an auditor over a prebuilt shared index,
// avoiding a rebuild when the caller already has one.
func NewIndexedAuditor(ix *index.BlockIndex) *Auditor {
	return &Auditor{Chain: ix.Chain(), Registry: ix.Registry(), idx: ix}
}

// Index returns the auditor's shared block index, building it on first use.
func (a *Auditor) Index() *index.BlockIndex {
	a.idxOnce.Do(func() {
		if a.idx == nil {
			a.idx = index.Build(a.Chain, a.Registry)
		}
	})
	return a.idx
}

// Last returns a view of the auditor whose audits read only the index's
// most recent n retained records — the sliding-window audits. n <= 0, or n
// at least the retained count, audits every retained record. Over an index
// fed a chain block by block, every audit of Last(n) equals the same audit
// of the batch index over chain.Suffix(n). The view shares the index, so
// it sees later appends the way the auditor does.
func (a *Auditor) Last(n int) *Auditor {
	return &Auditor{Chain: a.Chain, Registry: a.Registry, idx: a.Index(), last: n}
}

// span returns the records the auditor's audits read.
func (a *Auditor) span() span {
	ix := a.Index()
	n := ix.Len()
	return span{ix: ix, lo: n - len(tail(ix.Records(), a.last)), hi: n}
}

// tail returns the last n records (all of them when n <= 0 or n exceeds
// the count) — the record-level analogue of chain.Suffix.
func tail(recs []index.BlockRecord, n int) []index.BlockRecord {
	if n <= 0 || n > len(recs) {
		return recs
	}
	return recs[len(recs)-n:]
}

// span is the unit every audit reads: the height-ordered run [lo, hi) of
// an index's retained records. Each audit is one function over a span; the
// full audit, a window, and a Fisher sub-window differ only in the range
// they are handed.
type span struct {
	ix     *index.BlockIndex
	lo, hi int
}

// recs returns the span's records.
func (s span) recs() []index.BlockRecord { return s.ix.Records()[s.lo:s.hi] }

// locate returns the offset in s.recs() of the record confirming the
// transaction; ok is false when it was confirmed outside the span (or not
// at all).
func (s span) locate(id chain.TxID) (int, bool) {
	i, ok := s.ix.LocateRecord(id)
	if !ok || i < s.lo || i >= s.hi {
		return 0, false
	}
	return i - s.lo, true
}

// hashRate estimates the pool's normalized hash rate as its share of the
// span's blocks — the paper's estimator, over exactly the audited blocks.
func (s span) hashRate(pool string) float64 {
	recs := s.recs()
	if len(recs) == 0 {
		return 0
	}
	n := 0
	for i := range recs {
		if recs[i].Pool == pool {
			n++
		}
	}
	return float64(n) / float64(len(recs))
}

// topPools lists the pools whose share of the span's blocks meets minShare,
// ordered by share descending (ties by name), excluding Unknown — the
// roster the differential audits test (the paper's "top-10 pools that
// mined at least 4%").
func (s span) topPools(minShare float64) []string {
	recs := s.recs()
	counts := make(map[string]int)
	for i := range recs {
		counts[recs[i].Pool]++
	}
	var out []string
	for pool, n := range counts {
		if pool != poolid.Unknown && float64(n)/float64(len(recs)) >= minShare {
			out = append(out, pool)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if counts[out[i]] != counts[out[j]] {
			return counts[out[i]] > counts[out[j]]
		}
		return out[i] < out[j]
	})
	return out
}

// PPEReport summarizes norm II adherence across the chain.
type PPEReport struct {
	// Overall summarizes per-block PPE over all attributable blocks.
	Overall stats.Summary
	// PerPool holds each pool's PPE summary, for pools with at least
	// minBlocks auditable blocks.
	PerPool map[string]stats.Summary
}

// SortedPools returns the PerPool keys in sorted order, so report rendering
// is deterministic across runs (map iteration order must never leak into
// output).
func (r PPEReport) SortedPools() []string {
	pools := make([]string, 0, len(r.PerPool))
	for pool := range r.PerPool {
		pools = append(pools, pool)
	}
	sort.Strings(pools)
	return pools
}

// ppeReport computes the Figure 7 report over the records: the PPE
// distribution overall and per identified pool with at least minBlocks
// auditable blocks.
func ppeReport(recs []index.BlockRecord, minBlocks int) PPEReport {
	var all []float64
	perPool := make(map[string][]float64)
	for i := range recs {
		rec := &recs[i]
		if !rec.PPEValid {
			continue
		}
		all = append(all, rec.PPE)
		perPool[rec.Pool] = append(perPool[rec.Pool], rec.PPE)
	}
	rep := PPEReport{Overall: stats.Summarize(all), PerPool: make(map[string]stats.Summary)}
	for pool, vals := range perPool {
		if len(vals) >= minBlocks && pool != poolid.Unknown {
			rep.PerPool[pool] = stats.Summarize(vals)
		}
	}
	return rep
}

// SelfInterestFinding is one row of the Table 2 pipeline: derive each
// pool's self-interest transaction set from its reward wallets, then test
// every (testing pool, transaction owner) combination among pools with at
// least minShare of blocks.
type SelfInterestFinding struct {
	// Owner is the pool whose transactions are being prioritized; Result
	// names the pool doing the prioritizing (Result.Pool == Owner means
	// selfish acceleration; otherwise collusion).
	Owner  string
	Result DifferentialResult
	// QAccel is the Benjamini–Hochberg adjusted acceleration p-value over
	// the whole tested family, guarding against multiple-testing
	// artifacts across the owners × pools grid.
	QAccel float64
}
