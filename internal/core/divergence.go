// Cross-observer divergence audit (DESIGN.md §14): where you watch the
// mempool from changes what you can prove. A single observer's first-seen
// times conflate network position with miner misbehaviour, so the
// multi-source index keeps a per-source arrival ledger and this audit
// measures how much the vantage points disagree — per-source offsets behind
// the earliest sighting, the pairwise agreement matrix, and a flag for any
// source whose times systematically lag beyond a threshold. A uniquely
// early source has no positive offset of its own; it manifests as every
// other source lagging, which the pairwise deltas make visible.

package core

import (
	"sort"
	"time"

	"chainaudit/internal/chain"
)

// Default divergence parameters.
const (
	// DefaultDivergenceThreshold flags a source whose median arrival offset
	// behind the earliest vantage exceeds one second — an order of magnitude
	// above the sub-100ms propagation jitter healthy peers show, far below
	// the block interval.
	DefaultDivergenceThreshold = time.Second
	// DefaultDivergenceMinShared is the minimum number of multi-source
	// transactions a source must share before its offset statistics are
	// trusted enough to flag it.
	DefaultDivergenceMinShared = 5
)

// DivergenceOptions tunes the cross-source divergence audit. Zero values
// select the defaults; like AuditOptions, a negative value means "no
// threshold".
type DivergenceOptions struct {
	// Threshold flags a source whose median offset behind the earliest
	// sighting exceeds it (0 → DefaultDivergenceThreshold, negative → 0).
	Threshold time.Duration
	// MinShared is the minimum shared-transaction count before a source can
	// be flagged (0 → DefaultDivergenceMinShared, negative → 0).
	MinShared int
}

func (o DivergenceOptions) threshold() time.Duration {
	switch {
	case o.Threshold == 0:
		return DefaultDivergenceThreshold
	case o.Threshold < 0:
		return 0
	}
	return o.Threshold
}

func (o DivergenceOptions) minShared() int {
	switch {
	case o.MinShared == 0:
		return DefaultDivergenceMinShared
	case o.MinShared < 0:
		return 0
	}
	return o.MinShared
}

// SourceDivergence summarizes one observation source's agreement with the
// rest of the ledger.
type SourceDivergence struct {
	Source string
	// Observed counts the source's attributed observations in the ledger;
	// Shared counts those also reported by at least one other source — the
	// only ones divergence can be measured on.
	Observed int
	Shared   int
	// Leads counts shared transactions where this source was (one of) the
	// earliest vantage points.
	Leads int
	// MedianOffset, P90Offset, and MaxOffset summarize the source's arrival
	// offset behind the earliest sighting (t_source − t_earliest ≥ 0) over
	// its shared transactions.
	MedianOffset time.Duration
	P90Offset    time.Duration
	MaxOffset    time.Duration
	// Flagged marks a systematic laggard: MedianOffset beyond the threshold
	// over at least MinShared shared transactions.
	Flagged bool
}

// PairDivergence is one cell of the pairwise agreement matrix.
type PairDivergence struct {
	// A and B are the pair's source IDs, A < B.
	A, B string
	// Shared counts transactions both sources reported.
	Shared int
	// MedianDelta is the median of t_A − t_B over the shared transactions:
	// negative means A is systematically earlier, positive B.
	MedianDelta time.Duration
	// P90AbsDelta is the 90th percentile of |t_A − t_B| — the pair's
	// disagreement spread regardless of direction.
	P90AbsDelta time.Duration
}

// DivergenceReport is the full cross-source agreement picture.
type DivergenceReport struct {
	// Sources holds one row per attributed source, sorted by source ID.
	Sources []SourceDivergence
	// Pairs holds the pairwise matrix's upper triangle (A < B), sorted.
	Pairs []PairDivergence
	// SharedTxs counts the transactions reported by at least two sources.
	SharedTxs int
	// Threshold and MinShared echo the resolved flagging parameters.
	Threshold time.Duration
	MinShared int
}

// FlaggedSources returns the flagged source IDs in order.
func (r *DivergenceReport) FlaggedSources() []string {
	var out []string
	for _, s := range r.Sources {
		if s.Flagged {
			out = append(out, s.Source)
		}
	}
	return out
}

// DivergenceAudit computes the per-source agreement matrix over a
// per-source arrival ledger (index.BlockIndex.SourceSeenTimes): for every
// transaction at least two sources reported, each source's offset behind
// the earliest sighting and each pair's signed first-seen delta, summarized
// as quantiles. A source whose median offset exceeds opts.Threshold over at
// least opts.MinShared shared transactions is flagged as a systematic
// laggard. The result is deterministic: transactions and sources are
// processed in sorted order, and all statistics are order-independent.
func DivergenceAudit(ledger map[chain.TxID]map[string]time.Time, opts DivergenceOptions) *DivergenceReport {
	rep := &DivergenceReport{Threshold: opts.threshold(), MinShared: opts.minShared()}
	srcSet := make(map[string]bool)
	for _, bySrc := range ledger {
		for s := range bySrc {
			srcSet[s] = true
		}
	}
	if len(srcSet) == 0 {
		return rep
	}
	sources := make([]string, 0, len(srcSet))
	for s := range srcSet {
		sources = append(sources, s)
	}
	sort.Strings(sources)
	srcIdx := make(map[string]int, len(sources))
	for i, s := range sources {
		srcIdx[s] = i
	}

	txids := make([]chain.TxID, 0, len(ledger))
	for id := range ledger {
		txids = append(txids, id)
	}
	sort.Slice(txids, func(i, j int) bool { return txids[i].Less(txids[j]) })

	n := len(sources)
	observed := make([]int, n)
	shared := make([]int, n)
	leads := make([]int, n)
	offsets := make([][]time.Duration, n)
	// pairKey(i, j), i < j, indexes the upper triangle row-major.
	pairKey := func(i, j int) int { return i*n + j }
	pairDeltas := make(map[int][]time.Duration)

	for _, id := range txids {
		bySrc := ledger[id]
		for s := range bySrc {
			observed[srcIdx[s]]++
		}
		if len(bySrc) < 2 {
			continue
		}
		rep.SharedTxs++
		present := make([]int, 0, len(bySrc))
		for s := range bySrc {
			present = append(present, srcIdx[s])
		}
		sort.Ints(present)
		earliest := bySrc[sources[present[0]]]
		for _, i := range present[1:] {
			if t := bySrc[sources[i]]; t.Before(earliest) {
				earliest = t
			}
		}
		for _, i := range present {
			off := bySrc[sources[i]].Sub(earliest)
			shared[i]++
			offsets[i] = append(offsets[i], off)
			if off == 0 {
				leads[i]++
			}
		}
		for a := 0; a < len(present); a++ {
			for b := a + 1; b < len(present); b++ {
				i, j := present[a], present[b]
				delta := bySrc[sources[i]].Sub(bySrc[sources[j]])
				pairDeltas[pairKey(i, j)] = append(pairDeltas[pairKey(i, j)], delta)
			}
		}
	}

	for i, s := range sources {
		sd := SourceDivergence{Source: s, Observed: observed[i], Shared: shared[i], Leads: leads[i]}
		if len(offsets[i]) > 0 {
			sorted := sortedDurations(offsets[i])
			sd.MedianOffset = durQuantile(sorted, 0.5)
			sd.P90Offset = durQuantile(sorted, 0.9)
			sd.MaxOffset = sorted[len(sorted)-1]
			sd.Flagged = sd.Shared >= rep.MinShared && sd.MedianOffset > rep.Threshold
		}
		rep.Sources = append(rep.Sources, sd)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			deltas := pairDeltas[pairKey(i, j)]
			if len(deltas) == 0 {
				continue
			}
			pd := PairDivergence{A: sources[i], B: sources[j], Shared: len(deltas)}
			pd.MedianDelta = durQuantile(sortedDurations(deltas), 0.5)
			abs := make([]time.Duration, len(deltas))
			for k, d := range deltas {
				if d < 0 {
					d = -d
				}
				abs[k] = d
			}
			pd.P90AbsDelta = durQuantile(sortedDurations(abs), 0.9)
			rep.Pairs = append(rep.Pairs, pd)
		}
	}
	return rep
}

// AuditDivergence runs the cross-observer divergence audit over the shared
// index's per-source arrival ledger. An index with no attributed sources
// (every observation anonymous) yields an empty report.
func (a *Auditor) AuditDivergence(opts DivergenceOptions) *DivergenceReport {
	return DivergenceAudit(a.Index().SourceSeenTimes(), opts)
}

// sortedDurations returns a sorted copy.
func sortedDurations(ds []time.Duration) []time.Duration {
	sorted := append([]time.Duration(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return sorted
}

// durQuantile returns the q-quantile of a sorted series by nearest rank —
// the same estimator observer.Stats.ShipQuantile uses.
func durQuantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	return sorted[int(q*float64(len(sorted)-1))]
}
