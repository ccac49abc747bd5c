package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary holds the descriptive statistics the paper reports for its table
// rows (e.g., Table 5 and Appendix G): count, mean, standard deviation,
// extrema, and quartiles.
type Summary struct {
	N      int
	Mean   float64
	Std    float64
	Min    float64
	P25    float64
	Median float64
	P75    float64
	Max    float64
}

// Summarize computes a Summary over the sample, ignoring NaNs. An empty
// (or all-NaN) sample yields a Summary with N == 0 and NaN moments.
func Summarize(sample []float64) Summary {
	clean := make([]float64, 0, len(sample))
	for _, v := range sample {
		if !math.IsNaN(v) {
			clean = append(clean, v)
		}
	}
	s := Summary{N: len(clean)}
	if s.N == 0 {
		s.Mean, s.Std, s.Min, s.P25, s.Median, s.P75, s.Max =
			math.NaN(), math.NaN(), math.NaN(), math.NaN(), math.NaN(), math.NaN(), math.NaN()
		return s
	}
	sort.Float64s(clean)
	s.Min = clean[0]
	s.Max = clean[s.N-1]
	s.Mean = Mean(clean)
	s.Std = Std(clean)
	s.P25 = Percentile(clean, 25)
	s.Median = Percentile(clean, 50)
	s.P75 = Percentile(clean, 75)
	return s
}

// String renders the summary in a compact single line.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4g std=%.4g min=%.4g p25=%.4g med=%.4g p75=%.4g max=%.4g",
		s.N, s.Mean, s.Std, s.Min, s.P25, s.Median, s.P75, s.Max)
}

// Mean returns the arithmetic mean, or NaN for an empty sample.
func Mean(sample []float64) float64 {
	if len(sample) == 0 {
		return math.NaN()
	}
	// Kahan summation: the congestion series sum millions of small values.
	var sum, comp float64
	for _, v := range sample {
		y := v - comp
		t := sum + y
		comp = (t - sum) - y
		sum = t
	}
	return sum / float64(len(sample))
}

// Variance returns the unbiased sample variance (n-1 denominator), or NaN
// when fewer than two observations are available.
func Variance(sample []float64) float64 {
	n := len(sample)
	if n < 2 {
		return math.NaN()
	}
	m := Mean(sample)
	var ss float64
	for _, v := range sample {
		d := v - m
		ss += d * d
	}
	return ss / float64(n-1)
}

// Std returns the unbiased sample standard deviation.
func Std(sample []float64) float64 {
	return math.Sqrt(Variance(sample))
}

// Percentile returns the p-th percentile (p in [0, 100]) of an already
// *sorted* sample using linear interpolation between closest ranks.
func Percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 || math.IsNaN(p) || p < 0 || p > 100 {
		return math.NaN()
	}
	if n == 1 {
		return sorted[0]
	}
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// PercentileUnsorted sorts a copy of the sample and returns its p-th
// percentile.
//
//lint:allow deadcode reference median/quartiles for the accel, sim, workload and stats distribution tests (TestQuoteMultiplierShape, TestCongestionDevelops, TestSizeModel, TestLogNormalMedian)
func PercentileUnsorted(sample []float64, p float64) float64 {
	c := append([]float64(nil), sample...)
	sort.Float64s(c)
	return Percentile(c, p)
}
