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
	"math"
	"slices"
	"strings"
	"time"

	"chainaudit/internal/index"
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

// DivergenceAudit computes the per-source agreement matrix over an
// arrival ledger (index.BlockIndex.SourceSeenTimes): for every transaction
// at least two sources reported, each source's offset behind the earliest
// sighting and each pair's signed first-seen delta, summarized as
// quantiles. A source whose median offset exceeds opts.Threshold over at
// least opts.MinShared shared transactions is flagged as a systematic
// laggard. Offsets saturate as time.Time.Sub does.
//
// It is one pass over the ledger's rows, in whatever order the ledger holds
// them. The result does not depend on that order: counts are sums, every
// quantile is read from a sorted sample, and sources and pairs are reported
// in source-name order. A source with no sighting left in the ledger gets
// no row.
func DivergenceAudit(ledger *index.Ledger, opts DivergenceOptions) *DivergenceReport {
	rep := &DivergenceReport{Threshold: opts.threshold(), MinShared: opts.minShared()}
	if ledger == nil {
		return rep
	}
	names := ledger.SourceNames()
	n := len(names)
	// byName lists the source ordinals in name order; rank inverts it.
	// Every per-source tally below is kept by rank.
	byName := make([]int32, n)
	for i := range byName {
		byName[i] = int32(i)
	}
	slices.SortFunc(byName, func(a, b int32) int { return strings.Compare(names[a], names[b]) })
	rank := make([]int, n)
	for r, ord := range byName {
		rank[ord] = r
	}

	observed := make([]int, n)
	leads := make([]int, n)
	offsets := make([][]time.Duration, n)
	// Every shared transaction adds, for each pair of its sources, the
	// pair to pairs and its delta to deltas at the same index.
	var pairs []sourcePair
	var deltas []time.Duration
	var row []index.Arrival
	for r := 0; r < ledger.Len(); r++ {
		row = ledger.AppendArrivals(row[:0], r)
		for _, a := range row {
			observed[rank[a.Source]]++
		}
		if len(row) < 2 {
			continue
		}
		rep.SharedTxs++
		earliest := row[0].NS
		for _, a := range row[1:] {
			earliest = min(earliest, a.NS)
		}
		for i, a := range row {
			ra := rank[a.Source]
			off := subNS(a.NS, earliest)
			offsets[ra] = append(offsets[ra], off)
			if off == 0 {
				leads[ra]++
			}
			for _, b := range row[i+1:] {
				if rb := rank[b.Source]; ra < rb {
					pairs = append(pairs, sourcePair{int32(ra), int32(rb)})
					deltas = append(deltas, subNS(a.NS, b.NS))
				} else {
					pairs = append(pairs, sourcePair{int32(rb), int32(ra)})
					deltas = append(deltas, subNS(b.NS, a.NS))
				}
			}
		}
	}

	for r, ord := range byName {
		if observed[r] == 0 {
			continue
		}
		sd := SourceDivergence{Source: names[ord], Observed: observed[r], Shared: len(offsets[r]), Leads: leads[r]}
		if sorted := offsets[r]; len(sorted) > 0 {
			slices.Sort(sorted)
			sd.MedianOffset = durQuantile(sorted, 0.5)
			sd.P90Offset = durQuantile(sorted, 0.9)
			sd.MaxOffset = sorted[len(sorted)-1]
			sd.Flagged = sd.Shared >= rep.MinShared && sd.MedianOffset > rep.Threshold
		}
		rep.Sources = append(rep.Sources, sd)
	}
	// Each pair's deltas form one run, pairs in name order, and each run
	// sorts on its own for its median.
	pairs, deltas = groupByPair(pairs, deltas, n)
	var abs []time.Duration
	for i := 0; i < len(pairs); {
		start, p := i, pairs[i]
		for i < len(pairs) && pairs[i] == p {
			i++
		}
		sorted := deltas[start:i]
		slices.Sort(sorted)
		pd := PairDivergence{A: names[byName[p.a]], B: names[byName[p.b]], Shared: len(sorted)}
		pd.MedianDelta = durQuantile(sorted, 0.5)
		abs = abs[:0]
		for _, d := range sorted {
			if d < 0 {
				d = -d // the negation of MinDuration overflows to itself
			}
			abs = append(abs, d)
		}
		slices.Sort(abs)
		pd.P90AbsDelta = durQuantile(abs, 0.9)
		rep.Pairs = append(rep.Pairs, pd)
	}
	return rep
}

// sourcePair is a pair of sources (A, B) by name rank, A < B.
type sourcePair struct{ a, b int32 }

// groupByPair reorders pairs, and deltas with them, by pair, A then B,
// keeping the order within a pair: two stable counting passes, by B and
// then by A, over n counts each, so the cost is linear in the deltas and
// the source count, with no table of n² pairs. Deltas of a single pair,
// the two-source case, are already grouped and are left as they are.
func groupByPair(pairs []sourcePair, deltas []time.Duration, n int) ([]sourcePair, []time.Duration) {
	if !slices.ContainsFunc(pairs, func(p sourcePair) bool { return p != pairs[0] }) {
		return pairs, deltas
	}
	outP := make([]sourcePair, len(pairs))
	outD := make([]time.Duration, len(deltas))
	count := make([]int, n+1)
	for _, byA := range []bool{false, true} {
		key := func(p sourcePair) int32 { return p.b }
		if byA {
			key = func(p sourcePair) int32 { return p.a }
		}
		clear(count)
		for _, p := range pairs {
			count[key(p)+1]++
		}
		for k := 1; k <= n; k++ {
			count[k] += count[k-1]
		}
		for i, p := range pairs {
			k := key(p)
			outP[count[k]], outD[count[k]] = p, deltas[i]
			count[k]++
		}
		pairs, outP = outP, pairs
		deltas, outD = outD, deltas
	}
	return pairs, deltas
}

// subNS returns a − b for two unix-nanosecond times, saturated to the
// Duration range exactly as time.Time.Sub saturates.
func subNS(a, b int64) time.Duration {
	d := a - b
	// The difference overflowed iff a and b differ in sign and d's sign is
	// not a's.
	if (a < 0) != (b < 0) && (d < 0) != (a < 0) {
		if a < b {
			return math.MinInt64
		}
		return math.MaxInt64
	}
	return time.Duration(d)
}

// AuditDivergence runs the cross-observer divergence audit over the shared
// index's arrival ledger. An index with no attributed sources (every
// observation anonymous) yields an empty report.
func (a *Auditor) AuditDivergence(opts DivergenceOptions) *DivergenceReport {
	return DivergenceAudit(a.Index().SourceSeenTimes(), opts)
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
