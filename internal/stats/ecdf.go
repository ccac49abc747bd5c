package stats

import (
	"math"
	"sort"
)

// ECDF is an empirical cumulative distribution function over a sample.
// The zero value is an empty distribution; use NewECDF to build one.
type ECDF struct {
	sorted []float64
}

// NewECDF builds an ECDF from the sample. The input slice is copied; NaNs
// are dropped.
func NewECDF(sample []float64) *ECDF {
	s := make([]float64, 0, len(sample))
	for _, v := range sample {
		if !math.IsNaN(v) {
			s = append(s, v)
		}
	}
	sort.Float64s(s)
	return &ECDF{sorted: s}
}

// Len returns the number of observations.
func (e *ECDF) Len() int { return len(e.sorted) }

// Points returns at most n (x, F(x)) pairs suitable for plotting the CDF
// as a step series. Points are taken at evenly spaced ranks so the series
// is faithful for any sample size.
func (e *ECDF) Points(n int) []CDFPoint {
	m := len(e.sorted)
	if m == 0 || n <= 0 {
		return nil
	}
	if n > m {
		n = m
	}
	pts := make([]CDFPoint, 0, n)
	for i := 0; i < n; i++ {
		rank := (i*(m-1) + (n-1)/2) / max(n-1, 1)
		if n == 1 {
			rank = m - 1
		}
		pts = append(pts, CDFPoint{X: e.sorted[rank], F: float64(rank+1) / float64(m)})
	}
	return pts
}

// CDFPoint is one (x, F(x)) sample of a distribution series.
type CDFPoint struct {
	X float64
	F float64
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
