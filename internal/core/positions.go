// Package core implements the paper's audit methodology — the primary
// contribution of the reproduction:
//
//   - position prediction error (PPE, §4.2.2): how far a block's observed
//     transaction order deviates from the greedy fee-rate norm;
//   - signed PPE (SPPE, §5.1.1): whether a transaction set sits higher in
//     blocks than its public fee-rate warrants;
//   - the one-sided binomial tests for differential acceleration and
//     deceleration of a transaction set by a mining pool (§5.1), with exact
//     p-values, the large-y normal approximation, and Fisher-combined
//     windowed variants (§5.1.3);
//   - violation-pair mining over mempool snapshots (§4.2.1), with the ε
//     arrival-time tightening and CPFP-pair exclusion;
//   - the norm III low-fee confirmation census (§4.2.3);
//   - the SPPE-threshold dark-fee detector validated in Table 4 (§5.4.2);
//   - commit-delay and fee/congestion analyses (§4.1).
//
// The canonical per-block position analysis lives in internal/index; the
// helpers here are its per-block entry points. Every whole-chain audit has
// exactly one implementation: a function over a run of a shared
// index.BlockIndex's retained records, reached through Auditor, so
// positions and attributions are derived once per block and a windowed
// audit is the same function over fewer records.
package core

import (
	"chainaudit/internal/chain"
	"chainaudit/internal/index"
)

// analyzeBlock computes the block's position analysis (see
// index.AnalyzeBlock for the norm and exclusions).
func analyzeBlock(b *chain.Block) *index.Positions {
	return index.AnalyzeBlock(b)
}

// PPE returns the block's position prediction error (§4.2.2): the mean
// absolute difference between predicted and observed positions over the
// block's auditable transactions, normalized by their count and expressed
// as a percentage. ok is false for blocks with no auditable transactions.
//
//lint:allow deadcode oracle: internal/index's TestIndexMatchesSerialAudits and core's PPE and equivalence tests compare the index's per-record PPE against it
func PPE(b *chain.Block) (ppe float64, ok bool) {
	return analyzeBlock(b).PPE()
}

// percentileRank converts a 0-based rank among n items to a percentile in
// [0, 100]. A single-item block puts its transaction at the 0th percentile.
func percentileRank(rank, n int) float64 {
	return index.PercentileRank(rank, n)
}

// BlockSPPEs returns the signed position prediction error of every
// auditable transaction in the block in one pass.
func BlockSPPEs(b *chain.Block) map[chain.TxID]float64 {
	info := analyzeBlock(b)
	n := info.N()
	out := make(map[chain.TxID]float64, n)
	for _, id := range info.IDs {
		out[id] = percentileRank(info.Predicted[id], n) - percentileRank(info.Observed[id], n)
	}
	return out
}

// sppeOnRecords returns the mean signed position prediction error of the
// transactions in set over the records (§5.1.1): the average over all set
// members found auditable in the blocks of (predicted percentile − observed
// percentile), accumulated in block and committed order. count reports how
// many set members contributed.
func sppeOnRecords(recs []*index.BlockRecord, set map[chain.TxID]bool) (sppe float64, count int) {
	var sum float64
	for _, rec := range recs {
		info := rec.Positions
		for _, tx := range rec.Block.Body() {
			if !set[tx.ID] {
				continue
			}
			obs, ok := info.Observed[tx.ID]
			if !ok {
				continue
			}
			pred := info.Predicted[tx.ID]
			n := info.N()
			sum += percentileRank(pred, n) - percentileRank(obs, n)
			count++
		}
	}
	if count == 0 {
		return 0, 0
	}
	return sum / float64(count), count
}
