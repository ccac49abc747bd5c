package core

// Chain-walking oracles: the paper's methodology written directly over a
// chain, block by block, with no shared index. The audits proper read an
// index's retained records (Auditor); these are the independent serial
// references the equivalence tests hold them to — over chain.Suffix(n) for
// windowed and retained audits.

import (
	"errors"
	"fmt"
	"sort"

	"chainaudit/internal/chain"
	"chainaudit/internal/index"
	"chainaudit/internal/poolid"
	"chainaudit/internal/stats"
)

// DifferentialTest runs the §5.1 test: given the chain, a pool attribution
// registry, the tested pool's name and hash rate θ0, and the c-transaction
// set, it counts c-blocks and m-blocks and computes both one-sided exact
// binomial p-values plus the SPPE within m's blocks.
func DifferentialTest(c *chain.Chain, reg *poolid.Registry, pool string, theta0 float64, set map[chain.TxID]bool) (DifferentialResult, error) {
	if theta0 <= 0 || theta0 >= 1 {
		return DifferentialResult{}, fmt.Errorf("core: theta0 %v out of (0,1)", theta0)
	}
	res := DifferentialResult{Pool: pool, Theta0: theta0}
	var mBlocks []*chain.Block
	for _, b := range c.Blocks() {
		hasC := false
		for _, tx := range b.Body() {
			if set[tx.ID] {
				hasC = true
				break
			}
		}
		if !hasC {
			continue
		}
		res.Y++
		if reg.AttributeBlock(b) == pool {
			res.X++
			mBlocks = append(mBlocks, b)
		}
	}
	if res.Y == 0 {
		return res, ErrNoCBlocks
	}
	acc, err := stats.ExactBinomialTest(res.X, res.Y, theta0, stats.Greater)
	if err != nil {
		return res, err
	}
	dec, err := stats.ExactBinomialTest(res.X, res.Y, theta0, stats.Less)
	if err != nil {
		return res, err
	}
	res.AccelP, res.AccelPNormal = acc.P, acc.PNormal
	res.DecelP, res.DecelPNormal = dec.P, dec.PNormal
	res.SPPE, res.SPPECount = SPPE(mBlocks, set)
	return res, nil
}

// DifferentialTestEstimated runs DifferentialTest with θ0 estimated from
// the chain itself (the pool's share of all blocks), the way the paper
// estimates hash rates.
func DifferentialTestEstimated(c *chain.Chain, reg *poolid.Registry, pool string, set map[chain.TxID]bool) (DifferentialResult, error) {
	shares := poolid.EstimateShares(c, reg)
	theta0 := poolid.HashRateOf(shares, pool)
	if theta0 == 0 {
		return DifferentialResult{}, fmt.Errorf("%w: %q", ErrPoolNoBlocks, pool)
	}
	if theta0 >= 1 {
		return DifferentialResult{}, fmt.Errorf("%w: %q", ErrDegenerateTest, pool)
	}
	return DifferentialTest(c, reg, pool, theta0, set)
}

// WindowedDifferentialTest splits the chain into nWindows equal spans of
// block height, runs the differential test per window with a per-window
// hash-rate estimate, and combines the p-values with Fisher's method.
// Windows with no c-blocks or no blocks by the pool are skipped.
func WindowedDifferentialTest(c *chain.Chain, reg *poolid.Registry, pool string, set map[chain.TxID]bool, nWindows int) (WindowedResult, error) {
	if nWindows < 1 {
		return WindowedResult{}, errors.New("core: need at least one window")
	}
	blocks := c.Blocks()
	if len(blocks) == 0 {
		return WindowedResult{}, ErrNoCBlocks
	}
	out := WindowedResult{Pool: pool}
	var accelPs, decelPs []float64
	per := (len(blocks) + nWindows - 1) / nWindows
	for start := 0; start < len(blocks); start += per {
		end := start + per
		if end > len(blocks) {
			end = len(blocks)
		}
		sub := chain.New()
		for _, b := range blocks[start:end] {
			if err := sub.Append(b); err != nil {
				return WindowedResult{}, err
			}
		}
		res, err := DifferentialTestEstimated(sub, reg, pool, set)
		if err != nil {
			continue // window without signal
		}
		out.Windows = append(out.Windows, res)
		accelPs = append(accelPs, res.AccelP)
		decelPs = append(decelPs, res.DecelP)
	}
	if len(out.Windows) == 0 {
		return out, ErrNoCBlocks
	}
	var err error
	out.AccelStat, out.AccelP, err = stats.FisherCombined(accelPs)
	if err != nil {
		return out, err
	}
	out.DecelStat, out.DecelP, err = stats.FisherCombined(decelPs)
	return out, err
}

// SPPE returns the mean signed position prediction error of the
// transactions in set over the given blocks (§5.1.1): the average over all
// set members found auditable in the blocks of (predicted percentile −
// observed percentile). count reports how many set members contributed.
func SPPE(blocks []*chain.Block, set map[chain.TxID]bool) (sppe float64, count int) {
	var sum float64
	for _, b := range blocks {
		var info *index.Positions
		for _, tx := range b.Body() {
			if !set[tx.ID] {
				continue
			}
			if info == nil {
				info = analyzeBlock(b)
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

// PPESeries computes the PPE of every block in the chain that has at least
// one auditable transaction, in height order.
func PPESeries(c *chain.Chain) []float64 {
	var out []float64
	for _, b := range c.Blocks() {
		if v, ok := PPE(b); ok {
			out = append(out, v)
		}
	}
	return out
}

// DetectAccelerated scans the given pool's blocks for transactions whose
// signed position prediction error meets minSPPE — i.e. transactions placed
// near the top of a block that their public fee-rate says belonged near the
// bottom (§5.4.2). Results are ordered by SPPE descending.
func DetectAccelerated(c *chain.Chain, reg *poolid.Registry, pool string, minSPPE float64) []Candidate {
	var out []Candidate
	for _, b := range c.Blocks() {
		if reg.AttributeBlock(b) != pool {
			continue
		}
		info := analyzeBlock(b)
		n := info.N()
		if n < 2 {
			continue
		}
		for _, id := range info.IDs {
			s := percentileRank(info.Predicted[id], n) - percentileRank(info.Observed[id], n)
			if s >= minSPPE {
				out = append(out, Candidate{TxID: id, Height: b.Height, SPPE: s})
			}
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].SPPE > out[j].SPPE })
	return out
}

// ValidateDetector evaluates the detector at each threshold against an
// acceleration oracle (the pool's public "was this accelerated" lookup),
// reproducing Table 4. Thresholds are evaluated independently, so rows
// nest: every SPPE ≥ 99 candidate also appears in the SPPE ≥ 90 row.
func ValidateDetector(c *chain.Chain, reg *poolid.Registry, pool string, thresholds []float64, oracle func(chain.TxID) bool) []DetectorRow {
	out := make([]DetectorRow, 0, len(thresholds))
	for _, thr := range thresholds {
		cands := DetectAccelerated(c, reg, pool, thr)
		row := DetectorRow{MinSPPE: thr, Candidates: len(cands)}
		for _, cand := range cands {
			if oracle(cand.TxID) {
				row.Accelerated++
			}
		}
		out = append(out, row)
	}
	return out
}

// BaselineAcceleratedRate estimates the acceleration base rate: the
// fraction of a random sample of the pool's transactions the oracle
// confirms (the paper found none in 1000). ids are sampled in block order;
// pass sampleEvery = k to take every k-th transaction.
func BaselineAcceleratedRate(c *chain.Chain, reg *poolid.Registry, pool string, sampleEvery int, oracle func(chain.TxID) bool) (sampled, accelerated int) {
	if sampleEvery < 1 {
		sampleEvery = 1
	}
	i := 0
	for _, b := range c.Blocks() {
		if reg.AttributeBlock(b) != pool {
			continue
		}
		for _, tx := range b.Body() {
			if i%sampleEvery == 0 {
				sampled++
				if oracle(tx.ID) {
					accelerated++
				}
			}
			i++
		}
	}
	return sampled, accelerated
}

// LowFeeConfirmations finds every confirmed transaction offering less than
// the recommended minimum fee-rate, with the pool that mined it.
func LowFeeConfirmations(c *chain.Chain, reg *poolid.Registry) []LowFeeConfirmation {
	var out []LowFeeConfirmation
	for _, b := range c.Blocks() {
		var pool string
		for _, tx := range b.Body() {
			if tx.FeeRate() >= chain.MinRelayFeeRate {
				continue
			}
			if pool == "" {
				pool = reg.AttributeBlock(b)
			}
			out = append(out, LowFeeConfirmation{
				TxID:    tx.ID,
				Height:  b.Height,
				Pool:    pool,
				FeeRate: tx.FeeRate(),
				ZeroFee: tx.Fee == 0,
			})
		}
	}
	return out
}

// SelfInterestSets derives, for each pool, the confirmed transactions in
// which the pool's reward wallets are a party (sender or receiver) — the
// paper's §5.2 methodology: reward addresses are collected from coinbase
// outputs, then every transaction touching them is the pool's
// self-interest set. The pools' own coinbases are excluded.
func SelfInterestSets(c *chain.Chain, reg *poolid.Registry) map[string]map[chain.TxID]bool {
	rewardAddrs := poolid.RewardAddresses(c, reg)
	// Invert: address → pool.
	owner := make(map[chain.Address]string)
	for pool, addrs := range rewardAddrs {
		if pool == poolid.Unknown {
			continue
		}
		for a := range addrs {
			owner[a] = pool
		}
	}
	out := make(map[string]map[chain.TxID]bool)
	for _, b := range c.Blocks() {
		for _, tx := range b.Body() {
			credit := func(addr chain.Address) {
				if pool, ok := owner[addr]; ok {
					set := out[pool]
					if set == nil {
						set = make(map[chain.TxID]bool)
						out[pool] = set
					}
					set[tx.ID] = true
				}
			}
			for _, in := range tx.Inputs {
				credit(in.Address)
			}
			for _, o := range tx.Outputs {
				credit(o.Address)
			}
		}
	}
	return out
}

// TouchingAddress returns the set of confirmed transactions with the given
// address as a party — used to build the scam-payment c-set of §5.3.
func TouchingAddress(c *chain.Chain, addr chain.Address) map[chain.TxID]bool {
	out := make(map[chain.TxID]bool)
	for _, b := range c.Blocks() {
		for _, tx := range b.Body() {
			if tx.Touches(addr) {
				out[tx.ID] = true
			}
		}
	}
	return out
}

// TopPoolsByShare lists pool names whose estimated hash rate meets the
// threshold, ordered by share descending — the paper tests the "top-10
// pools that mined at least 4%" (Table 2) or "top-9 at least 5%" (Table 3).
func TopPoolsByShare(c *chain.Chain, reg *poolid.Registry, minShare float64) []string {
	shares := poolid.EstimateShares(c, reg)
	var out []string
	for _, s := range shares {
		if s.Pool == poolid.Unknown || s.HashRate < minShare {
			continue
		}
		out = append(out, s.Pool)
	}
	sort.SliceStable(out, func(i, j int) bool {
		return poolid.HashRateOf(shares, out[i]) > poolid.HashRateOf(shares, out[j])
	})
	return out
}

// TxSPPE returns the signed position prediction error of one transaction
// within its block: predicted percentile minus observed percentile, in
// [-100, 100]. A large positive value means the transaction sat far above
// where its public fee-rate justified — the dark-fee signature of §5.4.2.
// ok is false when the transaction is not auditable in this block (CPFP,
// coinbase, or absent).
func TxSPPE(b *chain.Block, id chain.TxID) (sppe float64, ok bool) {
	return analyzeBlock(b).SPPE(id)
}
