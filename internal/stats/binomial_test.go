package stats

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestBinomialPMFSumsToOne(t *testing.T) {
	for _, c := range []struct {
		n int64
		p float64
	}{{10, 0.3}, {50, 0.07}, {200, 0.5}, {1000, 0.9}} {
		sum := 0.0
		for k := int64(0); k <= c.n; k++ {
			sum += BinomialPMF(k, c.n, c.p)
		}
		if !approxEq(sum, 1, 1e-9) {
			t.Errorf("pmf(n=%d,p=%v) sums to %v", c.n, c.p, sum)
		}
	}
}

func TestBinomialPMFSmallExact(t *testing.T) {
	// Binomial(4, 0.5): 1/16, 4/16, 6/16, 4/16, 1/16.
	want := []float64{1.0 / 16, 4.0 / 16, 6.0 / 16, 4.0 / 16, 1.0 / 16}
	for k, w := range want {
		if got := BinomialPMF(int64(k), 4, 0.5); !approxEq(got, w, 1e-12) {
			t.Errorf("pmf(%d;4,0.5) = %v, want %v", k, got, w)
		}
	}
}

func TestBinomialCDFAgainstSummation(t *testing.T) {
	cases := []struct {
		n int64
		p float64
	}{{1, 0.2}, {17, 0.33}, {100, 0.05}, {400, 0.7}, {2500, 0.0375}}
	for _, c := range cases {
		cum := 0.0
		for k := int64(0); k <= c.n; k++ {
			cum += BinomialPMF(k, c.n, c.p)
			got := BinomialCDF(k, c.n, c.p)
			if !approxEq(got, math.Min(cum, 1), 1e-8) {
				t.Fatalf("CDF(%d;%d,%v) = %v, want %v", k, c.n, c.p, got, cum)
			}
		}
	}
}

func TestBinomialSFTwoImplementationsAgree(t *testing.T) {
	if err := quick.Check(func(rn uint16, rx uint16, rp uint16) bool {
		n := int64(rn%1500) + 1
		x := int64(rx) % (n + 1)
		p := (float64(rp%999) + 0.5) / 1000
		a := BinomialSF(x-1, n, p) // Pr(B >= x)
		b := BinomialSFSummed(x, n, p)
		return approxEq(a, b, 1e-7) || (a < 1e-12 && b < 1e-12)
	}, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestBinomialCDFSFComplement(t *testing.T) {
	if err := quick.Check(func(rn, rk, rp uint16) bool {
		n := int64(rn%2000) + 1
		k := int64(rk) % (n + 1)
		p := (float64(rp%999) + 0.5) / 1000
		s := BinomialCDF(k, n, p) + BinomialSF(k, n, p)
		return approxEq(s, 1, 1e-9)
	}, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestBinomialDegenerateP(t *testing.T) {
	if got := BinomialCDF(3, 10, 0); got != 1 {
		t.Errorf("CDF with p=0 = %v, want 1", got)
	}
	if got := BinomialSF(3, 10, 0); got != 0 {
		t.Errorf("SF with p=0 = %v, want 0", got)
	}
	if got := BinomialCDF(3, 10, 1); got != 0 {
		t.Errorf("CDF(k<n) with p=1 = %v, want 0", got)
	}
	if got := BinomialSF(3, 10, 1); got != 1 {
		t.Errorf("SF(k<n) with p=1 = %v, want 1", got)
	}
	if got := BinomialCDF(10, 10, 1); got != 1 {
		t.Errorf("CDF(k=n) with p=1 = %v, want 1", got)
	}
}

func TestExactBinomialTestAccelerationDetects(t *testing.T) {
	// A pool with 6.76% hash rate mining 412 of 720 c-blocks (ViaBTC row of
	// Table 2) must be overwhelmingly significant.
	res, err := ExactBinomialTest(412, 720, 0.0676, Greater)
	if err != nil {
		t.Fatal(err)
	}
	if res.P > 1e-100 {
		t.Errorf("acceleration p = %v, want effectively 0", res.P)
	}
	if !res.Significant {
		t.Error("test not flagged significant")
	}
	// The matching deceleration test must be ~1.
	dec, err := ExactBinomialTest(412, 720, 0.0676, Less)
	if err != nil {
		t.Fatal(err)
	}
	if dec.P < 0.999999 {
		t.Errorf("deceleration p = %v, want ~1", dec.P)
	}
}

func TestExactBinomialTestNullNotRejected(t *testing.T) {
	// x close to yθ0: should not be significant. Poolin row of Table 3:
	// x=10, y=53, θ0=0.1528 → p_accel ≈ 0.2856.
	res, err := ExactBinomialTest(10, 53, 0.1528, Greater)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.P-0.2856) > 0.02 {
		t.Errorf("Table 3 Poolin acceleration p = %v, paper reports 0.2856", res.P)
	}
	if res.Significant {
		t.Error("null case flagged significant")
	}
	dec, err := ExactBinomialTest(10, 53, 0.1528, Less)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(dec.P-0.8227) > 0.02 {
		t.Errorf("Table 3 Poolin deceleration p = %v, paper reports 0.8227", dec.P)
	}
}

func TestExactBinomialTestTable3Rows(t *testing.T) {
	// Remaining rows of the paper's Table 3: exact reproduction of the
	// published p-values from published (x, y, θ0).
	rows := []struct {
		name       string
		theta      float64
		x          int64
		accel, dec float64
	}{
		{"F2Pool", 0.1450, 10, 0.2323, 0.8629},
		{"BTC.com", 0.1147, 9, 0.1483, 0.9233},
		{"AntPool", 0.1093, 4, 0.8450, 0.2989},
		{"Huobi", 0.0955, 1, 0.9951, 0.0323},
		{"Okex", 0.0698, 3, 0.7248, 0.4890},
		{"1THash&58COIN", 0.0684, 8, 0.0268, 0.9907},
		{"BinancePool", 0.0590, 3, 0.6120, 0.6180},
		{"ViaBTC", 0.0552, 1, 0.9507, 0.2020},
	}
	for _, r := range rows {
		acc, err := ExactBinomialTest(r.x, 53, r.theta, Greater)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(acc.P-r.accel) > 0.005 {
			t.Errorf("%s accel p = %.4f, paper reports %.4f", r.name, acc.P, r.accel)
		}
		dec, err := ExactBinomialTest(r.x, 53, r.theta, Less)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(dec.P-r.dec) > 0.005 {
			t.Errorf("%s decel p = %.4f, paper reports %.4f", r.name, dec.P, r.dec)
		}
	}
}

func TestExactBinomialTestValidation(t *testing.T) {
	for _, c := range []struct {
		x, y  int64
		theta float64
	}{{-1, 5, 0.5}, {6, 5, 0.5}, {2, -1, 0.5}, {2, 5, -0.1}, {2, 5, 1.5}, {2, 5, math.NaN()}} {
		if _, err := ExactBinomialTest(c.x, c.y, c.theta, Greater); !errors.Is(err, ErrInvalidTest) {
			t.Errorf("ExactBinomialTest(%d,%d,%v) error = %v, want ErrInvalidTest", c.x, c.y, c.theta, err)
		}
	}
}

func TestNormalApproxMatchesExactForLargeY(t *testing.T) {
	// §5.1.3: for large y with θ0 away from 0/1 the normal approximation
	// should track the exact tail closely.
	for _, c := range []struct {
		x, y  int64
		theta float64
	}{
		{520, 5000, 0.1},
		{480, 5000, 0.1},
		{12000, 100000, 0.12},
	} {
		exact := BinomialSF(c.x-1, c.y, c.theta)
		approx := NormalApproxP(c.x, c.y, c.theta, Greater)
		if exact > 1e-8 && math.Abs(math.Log(exact)-math.Log(approx)) > 0.25 {
			t.Errorf("x=%d y=%d: exact %v vs approx %v", c.x, c.y, exact, approx)
		}
	}
}

func TestAlternativeString(t *testing.T) {
	if Greater.String() != "greater" || Less.String() != "less" {
		t.Error("Alternative.String mismatch")
	}
	if Alternative(9).String() == "" {
		t.Error("unknown alternative rendered empty")
	}
}

func TestFisherCombined(t *testing.T) {
	// Uniform p-values should combine to something unexceptional.
	stat, p, err := FisherCombined([]float64{0.5, 0.5, 0.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	wantStat := -2 * 4 * math.Log(0.5)
	if !approxEq(stat, wantStat, 1e-12) {
		t.Errorf("statistic = %v, want %v", stat, wantStat)
	}
	if p < 0.3 || p > 0.9 {
		t.Errorf("combined p of uniform 0.5s = %v, want moderate", p)
	}
	// A batch of small p-values must combine to a very small p.
	_, p, err = FisherCombined([]float64{0.01, 0.02, 0.005})
	if err != nil {
		t.Fatal(err)
	}
	if p > 1e-3 {
		t.Errorf("combined p = %v, want < 1e-3", p)
	}
	// Zero p-values must not NaN.
	_, p, err = FisherCombined([]float64{0, 0.5})
	if err != nil || math.IsNaN(p) {
		t.Errorf("zero p-value handling: p=%v err=%v", p, err)
	}
}

func TestFisherCombinedBoundaries(t *testing.T) {
	// p = 0 clamps to the smallest positive double, 2^-1074, so its
	// contribution is -2·ln(2^-1074) = 2148·ln 2 exactly — large, finite,
	// and platform-independent.
	wantZero := 2148 * math.Ln2
	stat, p, err := FisherCombined([]float64{0})
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(stat, 0) || math.IsNaN(stat) {
		t.Fatalf("p=0 statistic = %v, want finite", stat)
	}
	if !approxEq(stat, wantZero, 1e-9) {
		t.Errorf("p=0 statistic = %v, want %v (2148·ln 2)", stat, wantZero)
	}
	if math.IsNaN(p) || p < 0 || p > 1e-300 {
		t.Errorf("p=0 combined p = %v, want tiny and well-formed", p)
	}

	// A subnormal p-value keeps its full exponent: 5e-324 is the clamp
	// value itself, so it must contribute exactly the clamped amount, not
	// the truncated ln(2^-1023) that math.Log yields for subnormals on
	// some platforms.
	stat, _, err = FisherCombined([]float64{5e-324})
	if err != nil {
		t.Fatal(err)
	}
	if !approxEq(stat, wantZero, 1e-9) {
		t.Errorf("subnormal statistic = %v, want %v", stat, wantZero)
	}

	// p = 1 contributes nothing: ln 1 = 0, and chi2 SF(0, 4 dof) = 1.
	stat, p, err = FisherCombined([]float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if stat != 0 {
		t.Errorf("p=1 statistic = %v, want 0", stat)
	}
	if !approxEq(p, 1, 1e-12) {
		t.Errorf("all-ones combined p = %v, want 1", p)
	}

	// Mixing a zero with moderate evidence stays finite and ordered: the
	// zero must dominate, not poison.
	statZ, pZ, err := FisherCombined([]float64{0, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(statZ, 0) || math.IsNaN(pZ) {
		t.Fatalf("mixed zero: stat=%v p=%v", statZ, pZ)
	}
	if statZ <= wantZero {
		t.Errorf("mixed statistic %v should exceed the lone-zero statistic %v", statZ, wantZero)
	}
}

func TestFisherCombinedErrors(t *testing.T) {
	if _, _, err := FisherCombined(nil); err == nil {
		t.Error("empty input accepted")
	}
	if _, _, err := FisherCombined([]float64{1.5}); err == nil {
		t.Error("p>1 accepted")
	}
	if _, _, err := FisherCombined([]float64{math.NaN()}); err == nil {
		t.Error("NaN accepted")
	}
}

func TestFisherCombinedMatchesSingle(t *testing.T) {
	// With one p-value, Fisher's method should return approximately that
	// p-value (chi2 with 2 dof: SF(-2 ln p) = p exactly).
	for _, pv := range []float64{0.001, 0.05, 0.5, 0.9} {
		_, p, err := FisherCombined([]float64{pv})
		if err != nil {
			t.Fatal(err)
		}
		if !approxEq(p, pv, 1e-9) {
			t.Errorf("FisherCombined([%v]) = %v", pv, p)
		}
	}
}

// BinomialSFSummed returns Pr(B >= x) by direct log-space summation of the
// pmf. It is O(y - x) and exists as an independent cross-check of
// BinomialSF.
func BinomialSFSummed(x, y int64, p float64) float64 {
	if x <= 0 {
		return 1
	}
	if x > y {
		return 0
	}
	sum := 0.0
	for k := x; k <= y; k++ {
		sum += BinomialPMF(k, y, p)
	}
	if sum > 1 {
		sum = 1
	}
	return sum
}

// BinomialPMF returns Pr(B = k) computed in log space, stable for large n.
func BinomialPMF(k, n int64, p float64) float64 {
	switch {
	case n < 0 || k < 0 || k > n || math.IsNaN(p) || p < 0 || p > 1:
		return math.NaN()
	case p == 0:
		if k == 0 {
			return 1
		}
		return 0
	case p == 1:
		if k == n {
			return 1
		}
		return 0
	}
	lp := LogChoose(n, k) + float64(k)*math.Log(p) + float64(n-k)*math.Log1p(-p)
	return math.Exp(lp)
}

// LogChoose returns log C(n, k) for 0 <= k <= n.
func LogChoose(n, k int64) float64 {
	if k < 0 || k > n {
		return math.Inf(-1)
	}
	ln1, _ := math.Lgamma(float64(n + 1))
	lk1, _ := math.Lgamma(float64(k + 1))
	lnk1, _ := math.Lgamma(float64(n - k + 1))
	return ln1 - lk1 - lnk1
}
