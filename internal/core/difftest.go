package core

import (
	"errors"
	"fmt"
	"sort"

	"chainaudit/internal/chain"
	"chainaudit/internal/index"
	"chainaudit/internal/stats"
)

// DifferentialResult is one row of a Table 2/3-style analysis: whether
// mining pool m treats the transaction set c differently from other miners.
type DifferentialResult struct {
	// Pool is the tested miner m.
	Pool string
	// Theta0 is m's normalized hash rate (the null success probability).
	Theta0 float64
	// X is the number of c-blocks mined by m; Y the total number of
	// c-blocks (blocks containing at least one c-transaction).
	X, Y int64
	// AccelP and DecelP are the exact one-sided p-values for the
	// acceleration (θ > θ0) and deceleration (θ < θ0) tests.
	AccelP, DecelP float64
	// AccelPNormal and DecelPNormal are the §5.1.3 normal approximations.
	AccelPNormal, DecelPNormal float64
	// SPPE is the mean signed position prediction error of the
	// c-transactions within m's blocks, and SPPECount how many
	// contributed.
	SPPE      float64
	SPPECount int
}

// SignificantAccel reports whether the acceleration test rejects at the
// paper's strong threshold (p < 0.001).
func (r DifferentialResult) SignificantAccel() bool { return r.AccelP < stats.StrongSize }

// SignificantDecel reports whether the deceleration test rejects at the
// strong threshold.
func (r DifferentialResult) SignificantDecel() bool { return r.DecelP < stats.StrongSize }

// ErrNoCBlocks reports a differential test with an empty c-block set.
var ErrNoCBlocks = errors.New("core: no blocks contain the tested transactions")

// ErrPoolNoBlocks reports an estimated differential test for a pool that
// mined no blocks in the chain (θ0 would be 0).
var ErrPoolNoBlocks = errors.New("core: pool mined no blocks")

// ErrDegenerateTest reports an estimated differential test for a pool that
// mined every block (θ0 would be 1).
var ErrDegenerateTest = errors.New("core: pool mined every block; test degenerate")

// BenignTestError reports whether the error is an expected no-signal
// condition of a differential test (no c-blocks, pool absent, or a
// degenerate θ0) rather than a genuine failure. The grid audits skip benign
// rows and propagate everything else.
func BenignTestError(err error) bool {
	return errors.Is(err, ErrNoCBlocks) || errors.Is(err, ErrPoolNoBlocks) || errors.Is(err, ErrDegenerateTest)
}

// differentialTest runs the §5.1 test of the c-transaction set against one
// pool over the span: θ0 is the pool's share of the span's blocks (the way
// the paper estimates hash rates), y counts the c-blocks — blocks
// confirming at least one c-transaction — and x those mined by the pool.
// It returns both one-sided exact binomial p-values plus the SPPE of the
// c-transactions within the pool's c-blocks. The c-blocks are located
// through the index's transaction lookup, O(|set|) rather than a scan.
func (s span) differentialTest(pool string, set map[chain.TxID]bool) (DifferentialResult, error) {
	theta0 := s.hashRate(pool)
	if theta0 == 0 {
		return DifferentialResult{}, fmt.Errorf("%w: %q", ErrPoolNoBlocks, pool)
	}
	if theta0 >= 1 {
		return DifferentialResult{}, fmt.Errorf("%w: %q", ErrDegenerateTest, pool)
	}
	res := DifferentialResult{Pool: pool, Theta0: theta0}
	seen := make(map[int]bool)
	var cIdxs []int
	for id := range set {
		if i, ok := s.locate(id); ok && !seen[i] {
			seen[i] = true
			cIdxs = append(cIdxs, i)
		}
	}
	sort.Ints(cIdxs)
	recs := s.recs()
	var mRecs []*index.BlockRecord
	for _, i := range cIdxs {
		rec := &recs[i]
		res.Y++
		if rec.Pool == pool {
			res.X++
			mRecs = append(mRecs, rec)
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
	res.SPPE, res.SPPECount = sppeOnRecords(mRecs, set)
	return res, nil
}

// WindowedResult is a Fisher-combined differential test over consecutive
// time windows (§5.1.3's suggested extension for drifting hash rates).
type WindowedResult struct {
	Pool    string
	Windows []DifferentialResult
	// AccelStat/AccelP combine the windows' acceleration p-values with
	// Fisher's method; likewise for deceleration.
	AccelStat, AccelP float64
	DecelStat, DecelP float64
}

// windowedTest splits the span into nWindows equal runs of records, runs
// the differential test per run with a per-run hash-rate estimate, and
// combines the p-values with Fisher's method. Runs with no c-blocks or no
// blocks by the pool are skipped.
func (s span) windowedTest(pool string, set map[chain.TxID]bool, nWindows int) (WindowedResult, error) {
	if nWindows < 1 {
		return WindowedResult{}, errors.New("core: need at least one window")
	}
	n := s.hi - s.lo
	if n == 0 {
		return WindowedResult{}, ErrNoCBlocks
	}
	out := WindowedResult{Pool: pool}
	var accelPs, decelPs []float64
	per := (n + nWindows - 1) / nWindows
	for start := s.lo; start < s.hi; start += per {
		end := min(start+per, s.hi)
		res, err := span{ix: s.ix, lo: start, hi: end}.differentialTest(pool, set)
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
