package main

import (
	"math"
	"sort"
	"time"
)

// median of xs (mean of the middle two for an even count); NaN when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns Q1 and Q3 as Python's statistics.quantiles(xs, n=4)
// computes them (the default "exclusive" method), which is how the spread
// of a set of runs is judged.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN(), math.NaN()
	}
	if n == 1 {
		return s[0], s[0]
	}
	at := func(j int) float64 {
		m := float64(n + 1)
		pos := float64(j) * m / 4
		k := int(math.Floor(pos))
		frac := pos - float64(k)
		lo, hi := k-1, k
		lo = min(max(lo, 0), n-1)
		hi = min(max(hi, 0), n-1)
		return s[lo] + (s[hi]-s[lo])*frac
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	m := median(xs)
	if m == 0 {
		return math.Inf(1)
	}
	return (q3 - q1) / math.Abs(m)
}

// percentile reads the p-quantile (0..1) of durations by nearest rank, in ms.
func percentile(ds []time.Duration, p float64) float64 {
	if len(ds) == 0 {
		return math.NaN()
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	k := int(math.Ceil(p*float64(len(s)))) - 1
	k = min(max(k, 0), len(s)-1)
	return ms(s[k])
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func medianDur(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = ms(d)
	}
	return median(xs)
}
