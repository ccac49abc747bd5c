package core

import (
	"sort"

	"chainaudit/internal/chain"
	"chainaudit/internal/index"
)

// Candidate is one transaction flagged by the SPPE-based dark-fee detector.
type Candidate struct {
	TxID   chain.TxID
	Height int64
	SPPE   float64
}

// detectAccelerated scans the pool's records for transactions whose signed
// position prediction error meets minSPPE — transactions placed near the
// top of a block that their public fee-rate says belonged near the bottom
// (§5.4.2). Candidates keep audited order within a block before the stable
// sort by SPPE descending.
func detectAccelerated(recs []index.BlockRecord, pool string, minSPPE float64) []Candidate {
	var out []Candidate
	for i := range recs {
		rec := &recs[i]
		if rec.Pool != pool {
			continue
		}
		info := rec.Positions
		n := info.N()
		if n < 2 {
			continue
		}
		for _, id := range info.IDs {
			s := percentileRank(info.Predicted[id], n) - percentileRank(info.Observed[id], n)
			if s >= minSPPE {
				out = append(out, Candidate{TxID: id, Height: rec.Block.Height, SPPE: s})
			}
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].SPPE > out[j].SPPE })
	return out
}

// DetectorRow is one threshold row of Table 4.
type DetectorRow struct {
	// MinSPPE is the detection threshold in percent.
	MinSPPE float64
	// Candidates is how many transactions meet the threshold.
	Candidates int
	// Accelerated is how many of them the oracle confirms.
	Accelerated int
}

// Precision returns the fraction of candidates the oracle confirms.
func (r DetectorRow) Precision() float64 {
	if r.Candidates == 0 {
		return 0
	}
	return float64(r.Accelerated) / float64(r.Candidates)
}
