package stats

import (
	"errors"
	"fmt"
	"math"
)

// The paper's differential-prioritization tests (§5.1) are one-sided
// binomial tests: given a miner with normalized hash rate θ0, y blocks that
// contain at least one transaction of interest, and x of those blocks mined
// by that miner, the acceleration test computes
//
//	p = Pr(B >= x),  B ~ Binomial(y, θ0)
//
// and the deceleration test computes Pr(B <= x). This file provides exact
// tail probabilities (two independent methods, cross-checked in tests), the
// normal approximation the paper gives for large y (§5.1.3), and Fisher's
// method for combining per-window p-values.

// Alternative selects the tail of a one-sided binomial test.
type Alternative int

const (
	// Greater tests H1: θ > θ0 (acceleration). The p-value is Pr(B >= x).
	Greater Alternative = iota
	// Less tests H1: θ < θ0 (deceleration). The p-value is Pr(B <= x).
	Less
)

// String returns the conventional name of the alternative hypothesis.
func (a Alternative) String() string {
	switch a {
	case Greater:
		return "greater"
	case Less:
		return "less"
	default:
		return fmt.Sprintf("Alternative(%d)", int(a))
	}
}

// ErrInvalidTest reports a binomial test invoked with out-of-domain
// arguments.
var ErrInvalidTest = errors.New("stats: invalid binomial test arguments")

// BinomialTest is the result of a one-sided exact binomial test.
type BinomialTest struct {
	X           int64       // observed successes (blocks mined by m)
	Y           int64       // trials (blocks containing c-transactions)
	Theta0      float64     // null success probability (normalized hash rate)
	Alt         Alternative // tested tail
	P           float64     // exact p-value
	PNormal     float64     // normal-approximation p-value (§5.1.3)
	Significant bool        // P < the size used when testing (see TestSize)
}

// TestSize is the size α of the test used throughout the paper's analyses.
const TestSize = 0.01

// StrongSize is the stricter threshold (p < 0.001) at which the paper calls
// out acceleration findings in Tables 2 and 3.
const StrongSize = 0.001

// ExactBinomialTest computes a one-sided binomial test with an exact tail
// probability (via the regularized incomplete beta function) and the normal
// approximation alongside it.
func ExactBinomialTest(x, y int64, theta0 float64, alt Alternative) (BinomialTest, error) {
	if y < 0 || x < 0 || x > y || math.IsNaN(theta0) || theta0 < 0 || theta0 > 1 {
		return BinomialTest{}, fmt.Errorf("%w: x=%d y=%d theta0=%v", ErrInvalidTest, x, y, theta0)
	}
	t := BinomialTest{X: x, Y: y, Theta0: theta0, Alt: alt}
	switch alt {
	case Greater:
		t.P = BinomialSF(x-1, y, theta0) // Pr(B >= x) = Pr(B > x-1)
	case Less:
		t.P = BinomialCDF(x, y, theta0)
	default:
		return BinomialTest{}, fmt.Errorf("%w: unknown alternative %d", ErrInvalidTest, int(alt))
	}
	t.PNormal = NormalApproxP(x, y, theta0, alt)
	t.Significant = t.P < TestSize
	return t, nil
}

// BinomialCDF returns Pr(B <= k) for B ~ Binomial(n, p), exactly, using the
// identity Pr(B <= k) = I_{1-p}(n-k, k+1).
func BinomialCDF(k, n int64, p float64) float64 {
	switch {
	case n < 0 || math.IsNaN(p):
		return math.NaN()
	case k < 0:
		return 0
	case k >= n:
		return 1
	case p <= 0:
		return 1
	case p >= 1:
		return 0 // k < n and all mass at n
	}
	return RegIncBeta(float64(n-k), float64(k+1), 1-p)
}

// BinomialSF returns Pr(B > k) = 1 - CDF(k), exactly, using the identity
// Pr(B > k) = I_p(k+1, n-k).
func BinomialSF(k, n int64, p float64) float64 {
	switch {
	case n < 0 || math.IsNaN(p):
		return math.NaN()
	case k < 0:
		return 1
	case k >= n:
		return 0
	case p <= 0:
		return 0
	case p >= 1:
		return 1
	}
	return RegIncBeta(float64(k+1), float64(n-k), p)
}

// NormalApproxP computes the paper's large-y normal approximation of the
// one-sided p-value: Φ((x - yθ0)/sqrt(yθ0(1-θ0))) for deceleration and the
// complementary tail for acceleration. A half-unit continuity correction is
// applied, which keeps the approximation usable at moderate y.
func NormalApproxP(x, y int64, theta0 float64, alt Alternative) float64 {
	if y <= 0 || theta0 <= 0 || theta0 >= 1 {
		// Degenerate null: tails are 0/1 and are handled exactly.
		switch alt {
		case Greater:
			return BinomialSF(x-1, y, theta0)
		default:
			return BinomialCDF(x, y, theta0)
		}
	}
	mean := float64(y) * theta0
	sd := math.Sqrt(float64(y) * theta0 * (1 - theta0))
	switch alt {
	case Greater:
		return NormalSF((float64(x) - 0.5 - mean) / sd)
	default:
		return NormalCDF((float64(x) + 0.5 - mean) / sd)
	}
}

// FisherCombined combines independent p-values with Fisher's method
// (§5.1.3): X = -2 Σ ln p_i follows a chi-squared distribution with 2k
// degrees of freedom under the global null. Zero p-values are clamped to
// the smallest positive double (2^-1074 ≈ 4.9e-324) so a single degenerate
// window contributes a large finite 2148·ln2 ≈ 1488.9 to the statistic
// instead of +Inf/NaN; the resulting combined p-value still reports
// overwhelming evidence, which is the right reading of an exact zero.
func FisherCombined(pvalues []float64) (statistic float64, p float64, err error) {
	if len(pvalues) == 0 {
		return 0, 0, errors.New("stats: FisherCombined needs at least one p-value")
	}
	for _, pv := range pvalues {
		if math.IsNaN(pv) || pv < 0 || pv > 1 {
			return 0, 0, fmt.Errorf("stats: FisherCombined p-value %v out of [0,1]", pv)
		}
		if pv < math.SmallestNonzeroFloat64 {
			pv = math.SmallestNonzeroFloat64
		}
		statistic += -2 * logPValue(pv)
	}
	return statistic, ChiSquaredSF(statistic, 2*len(pvalues)), nil
}

// logPValue is ln(pv) for pv in (0, 1]. math.Log loses the subnormal
// exponent range on some platforms (ln(2^-1074) comes back as ln(2^-1023)),
// which would make the Fisher statistic platform-dependent for extreme
// p-values; decomposing via Frexp keeps the full exponent: ln(f·2^e) =
// ln(f) + e·ln 2 with f in [0.5, 1), where math.Log is exact.
func logPValue(pv float64) float64 {
	if pv >= 2.2250738585072014e-308 { // smallest normal float64
		return math.Log(pv)
	}
	frac, exp := math.Frexp(pv)
	return math.Log(frac) + float64(exp)*math.Ln2
}
