package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestECDFBasics(t *testing.T) {
	e := NewECDF([]float64{3, 1, 2})
	if e.Len() != 3 {
		t.Fatalf("Len = %d", e.Len())
	}
	cases := []struct{ x, want float64 }{
		{0.5, 0}, {1, 1.0 / 3}, {1.5, 1.0 / 3}, {2, 2.0 / 3}, {3, 1}, {99, 1},
	}
	for _, c := range cases {
		if got := e.Eval(c.x); !approxEq(got, c.want, 1e-12) && !(got == 0 && c.want == 0) {
			t.Errorf("Eval(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestECDFDuplicates(t *testing.T) {
	e := NewECDF([]float64{2, 2, 2, 5})
	if got := e.Eval(2); !approxEq(got, 0.75, 1e-12) {
		t.Errorf("Eval(2) with duplicates = %v, want 0.75", got)
	}
	if got := e.Eval(1.999); got != 0 {
		t.Errorf("Eval(1.999) = %v, want 0", got)
	}
}

func TestECDFDropsNaN(t *testing.T) {
	e := NewECDF([]float64{1, math.NaN(), 2})
	if e.Len() != 2 {
		t.Fatalf("NaN not dropped: Len = %d", e.Len())
	}
}

func TestECDFEmpty(t *testing.T) {
	e := NewECDF(nil)
	if !math.IsNaN(e.Eval(1)) {
		t.Error("empty ECDF should return NaN everywhere")
	}
	if pts := e.Points(5); pts != nil {
		t.Errorf("empty Points = %v", pts)
	}
}

func TestECDFEvalMonotone(t *testing.T) {
	if err := quick.Check(func(raw []float64) bool {
		sample := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				sample = append(sample, v)
			}
		}
		if len(sample) < 2 {
			return true
		}
		e := NewECDF(sample)
		xs := append([]float64(nil), sample...)
		sort.Float64s(xs)
		prev := -1.0
		for _, x := range xs {
			f := e.Eval(x)
			if f < prev {
				return false
			}
			prev = f
		}
		return prev == 1
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestECDFPoints(t *testing.T) {
	sample := make([]float64, 100)
	for i := range sample {
		sample[i] = float64(i)
	}
	e := NewECDF(sample)
	pts := e.Points(10)
	if len(pts) != 10 {
		t.Fatalf("Points(10) returned %d points", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].X < pts[i-1].X || pts[i].F < pts[i-1].F {
			t.Fatalf("points not monotone at %d: %+v", i, pts)
		}
	}
	if last := pts[len(pts)-1]; last.F != 1 {
		t.Errorf("last point F = %v, want 1", last.F)
	}
	// More points than observations clamps to sample size.
	small := NewECDF([]float64{1, 2, 3})
	if got := small.Points(10); len(got) != 3 {
		t.Errorf("Points clamp: got %d", len(got))
	}
	if got := NewECDF([]float64{5}).Points(1); len(got) != 1 || got[0].F != 1 {
		t.Errorf("single point series wrong: %+v", got)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.N != 8 {
		t.Fatalf("N = %d", s.N)
	}
	if !approxEq(s.Mean, 5, 1e-12) {
		t.Errorf("Mean = %v", s.Mean)
	}
	// Sample std with n-1: variance = 32/7.
	if want := math.Sqrt(32.0 / 7); !approxEq(s.Std, want, 1e-12) {
		t.Errorf("Std = %v, want %v", s.Std, want)
	}
	if s.Min != 2 || s.Max != 9 {
		t.Errorf("Min/Max = %v/%v", s.Min, s.Max)
	}
	if !approxEq(s.Median, 4.5, 1e-12) {
		t.Errorf("Median = %v", s.Median)
	}
	if s.String() == "" {
		t.Error("String empty")
	}
}

func TestSummarizeEmptyAndNaN(t *testing.T) {
	s := Summarize([]float64{math.NaN()})
	if s.N != 0 || !math.IsNaN(s.Mean) {
		t.Errorf("all-NaN summary: %+v", s)
	}
}

func TestPercentile(t *testing.T) {
	sorted := []float64{10, 20, 30, 40}
	cases := []struct{ p, want float64 }{
		{0, 10}, {100, 40}, {50, 25}, {25, 17.5},
	}
	for _, c := range cases {
		if got := Percentile(sorted, c.p); !approxEq(got, c.want, 1e-12) {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(Percentile(nil, 50)) || !math.IsNaN(Percentile(sorted, -1)) || !math.IsNaN(Percentile(sorted, 101)) {
		t.Error("invalid percentile arguments should return NaN")
	}
	if got := Percentile([]float64{7}, 50); got != 7 {
		t.Errorf("single-element percentile = %v", got)
	}
}

func TestMeanKahan(t *testing.T) {
	// 1 followed by many tiny values: naive summation loses them.
	sample := make([]float64, 1_000_001)
	sample[0] = 1
	for i := 1; i < len(sample); i++ {
		sample[i] = 1e-16
	}
	got := Mean(sample)
	want := (1 + 1e-16*1e6) / 1_000_001
	if !approxEq(got, want, 1e-9) {
		t.Errorf("Kahan mean = %v, want %v", got, want)
	}
	if !math.IsNaN(Mean(nil)) {
		t.Error("Mean(nil) should be NaN")
	}
}

func TestVarianceStd(t *testing.T) {
	if !math.IsNaN(Variance([]float64{1})) {
		t.Error("Variance of single element should be NaN")
	}
	if got := Variance([]float64{1, 1, 1}); got != 0 {
		t.Errorf("Variance of constants = %v", got)
	}
}

// Eval returns F(x) = fraction of observations <= x.
func (e *ECDF) Eval(x float64) float64 {
	if len(e.sorted) == 0 {
		return math.NaN()
	}
	i := sort.SearchFloat64s(e.sorted, x)
	// SearchFloat64s returns the first index with sorted[i] >= x; advance
	// over equal values to make the CDF right-continuous (<= x).
	for i < len(e.sorted) && e.sorted[i] == x {
		i++
	}
	return float64(i) / float64(len(e.sorted))
}
