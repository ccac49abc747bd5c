package core

import (
	"time"

	"chainaudit/internal/chain"
	"chainaudit/internal/mempool"
	"chainaudit/internal/pipeline"
	"chainaudit/internal/stats"
)

// ViolationOptions configure the §4.2.1 violation-pair analysis.
type ViolationOptions struct {
	// Epsilon tightens the arrival-order constraint: a pair (i, j) is only
	// comparable when t_i + ε < t_j, absorbing cross-node propagation
	// differences. The paper uses 0, 10 s, and 10 min.
	Epsilon time.Duration
	// ExcludeDependent discards pairs in which either transaction
	// participates in an intra-block (CPFP) dependency, removing the false
	// positives dependent transactions introduce.
	ExcludeDependent bool
}

// ViolationStats summarizes one snapshot's pairwise norm-adherence.
type ViolationStats struct {
	SnapshotTime time.Time
	// Confirmed counts snapshot transactions eventually confirmed.
	Confirmed int
	// UnseenExcluded counts confirmed snapshot transactions excluded because
	// their first-seen time is unknown (zero): a zero time means "never seen
	// in the mempool", not the Unix epoch, and the paper's rule excludes such
	// transactions from pair comparison rather than treating them as
	// infinitely early.
	UnseenExcluded int
	// ComparablePairs counts pairs (i, j) with t_i + ε < t_j and
	// f_i > f_j, both confirmed — the pairs the fee-rate norm orders.
	ComparablePairs int64
	// ViolatingPairs counts comparable pairs committed out of order
	// (b_i > b_j).
	ViolatingPairs int64
}

// Fraction returns the violating share of comparable pairs (0 when no pair
// is comparable).
func (v ViolationStats) Fraction() float64 {
	if v.ComparablePairs == 0 {
		return 0
	}
	return float64(v.ViolatingPairs) / float64(v.ComparablePairs)
}

// ViolationPairs runs the §4.2.1 test on one full mempool snapshot: find
// all transaction pairs where i was seen ε-earlier and offered a strictly
// higher fee-rate, yet was committed in a strictly later block than j.
func ViolationPairs(snap mempool.Snapshot, c *chain.Chain, opts ViolationOptions) ViolationStats {
	out := ViolationStats{SnapshotTime: snap.Time}
	type item struct {
		seen  time.Time
		rate  float64
		block int64
	}
	items := make([]item, 0, len(snap.Txs))
	// deps caches each confirming block's dependency set: many snapshot
	// transactions share a block, and building the set walks all of it.
	var deps map[int64]map[chain.TxID]bool
	for _, st := range snap.Txs {
		loc, ok := c.Locate(st.Tx.ID)
		if !ok {
			continue // never confirmed: the norm says nothing about it yet
		}
		if st.FirstSeen.IsZero() {
			// Unknown first-seen: excluding the transaction (rather than
			// ranking it at the epoch, i.e. before everything) keeps the
			// comparable-pair set honest under degraded mempool coverage.
			out.UnseenExcluded++
			cUnseenExcluded.Inc()
			continue
		}
		if opts.ExcludeDependent {
			dep, ok := deps[loc.Height]
			if !ok {
				if b := c.BlockAt(loc.Height); b != nil {
					dep = b.DependencySet()
				}
				if deps == nil {
					deps = make(map[int64]map[chain.TxID]bool)
				}
				deps[loc.Height] = dep
			}
			if dep[st.Tx.ID] {
				continue
			}
		}
		items = append(items, item{
			seen:  st.FirstSeen,
			rate:  float64(st.Tx.FeeRate()),
			block: loc.Height,
		})
	}
	out.Confirmed = len(items)
	eps := opts.Epsilon
	for i := 0; i < len(items); i++ {
		for j := 0; j < len(items); j++ {
			if i == j {
				continue
			}
			a, b := items[i], items[j]
			if !a.seen.Add(eps).Before(b.seen) {
				continue
			}
			if a.rate <= b.rate {
				continue
			}
			out.ComparablePairs++
			if a.block > b.block {
				out.ViolatingPairs++
			}
		}
	}
	return out
}

// ViolationSurvey samples up to sampleN full snapshots uniformly at random
// (the paper samples 30) and computes violation statistics for each under
// the given options. Sampling happens up front (one deterministic draw from
// rng); the per-snapshot O(n²) pair scans then fan out over the worker
// pool, with results merged in sample order.
func ViolationSurvey(snaps []mempool.Snapshot, c *chain.Chain, opts ViolationOptions, sampleN int, rng *stats.RNG) []ViolationStats {
	full := make([]mempool.Snapshot, 0, len(snaps))
	for _, s := range snaps {
		if s.Full() && s.Count > 1 {
			full = append(full, s)
		}
	}
	if sampleN > 0 && sampleN < len(full) {
		idx := rng.SampleInts(len(full), sampleN)
		picked := make([]mempool.Snapshot, 0, sampleN)
		for _, i := range idx {
			picked = append(picked, full[i])
		}
		full = picked
	}
	return pipeline.Map(len(full), func(i int) ViolationStats {
		return ViolationPairs(full[i], c, opts)
	})
}

// ViolationFractions extracts the per-snapshot violating fractions from a
// survey, the series Figure 6 plots as a CDF.
func ViolationFractions(survey []ViolationStats) []float64 {
	out := make([]float64, 0, len(survey))
	for _, v := range survey {
		out = append(out, v.Fraction())
	}
	return out
}
