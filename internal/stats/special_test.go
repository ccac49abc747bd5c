package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func approxEq(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	diff := math.Abs(a - b)
	if diff <= tol {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= tol*scale
}

func TestRegIncBetaKnownValues(t *testing.T) {
	cases := []struct {
		a, b, x, want float64
	}{
		// I_x(1, 1) = x (uniform CDF).
		{1, 1, 0.25, 0.25},
		{1, 1, 0.9, 0.9},
		// I_x(1, b) = 1 - (1-x)^b.
		{1, 3, 0.5, 1 - math.Pow(0.5, 3)},
		// I_x(a, 1) = x^a.
		{4, 1, 0.3, math.Pow(0.3, 4)},
		// Symmetric case I_{1/2}(a, a) = 1/2.
		{5, 5, 0.5, 0.5},
		{0.3, 0.3, 0.5, 0.5},
		// I_0.2(2,5) via the binomial identity: Pr(B >= 2), B ~ Bin(6, 0.2).
		{2, 5, 0.2, 0.34464},
		// I_0.8(10,2) = Pr(B >= 10), B ~ Bin(11, 0.8) = 11*0.8^10*0.2 + 0.8^11.
		{10, 2, 0.8, 0.3221225472},
		// Arcsine law: I_x(1/2,1/2) = (2/pi) asin(sqrt(x)).
		{0.5, 0.5, 0.3, 2 / math.Pi * math.Asin(math.Sqrt(0.3))},
	}
	for _, c := range cases {
		got := RegIncBeta(c.a, c.b, c.x)
		if !approxEq(got, c.want, 1e-6) {
			t.Errorf("RegIncBeta(%v,%v,%v) = %v, want %v", c.a, c.b, c.x, got, c.want)
		}
	}
}

func TestRegIncBetaBounds(t *testing.T) {
	if got := RegIncBeta(2, 3, 0); got != 0 {
		t.Errorf("I_0 = %v, want 0", got)
	}
	if got := RegIncBeta(2, 3, 1); got != 1 {
		t.Errorf("I_1 = %v, want 1", got)
	}
	if got := RegIncBeta(-1, 3, 0.5); !math.IsNaN(got) {
		t.Errorf("negative a gave %v, want NaN", got)
	}
}

func TestRegIncBetaMonotoneInX(t *testing.T) {
	if err := quick.Check(func(ra, rb uint16, steps uint8) bool {
		a := 0.1 + float64(ra%500)/10
		b := 0.1 + float64(rb%500)/10
		prev := 0.0
		n := int(steps%20) + 2
		for i := 1; i <= n; i++ {
			x := float64(i) / float64(n+1)
			v := RegIncBeta(a, b, x)
			if math.IsNaN(v) || v < prev-1e-12 || v > 1+1e-12 {
				return false
			}
			prev = v
		}
		return true
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestRegIncBetaSymmetry(t *testing.T) {
	// I_x(a, b) + I_{1-x}(b, a) = 1.
	if err := quick.Check(func(ra, rb, rx uint16) bool {
		a := 0.2 + float64(ra%300)/7
		b := 0.2 + float64(rb%300)/7
		x := (float64(rx%998) + 1) / 1000
		s := RegIncBeta(a, b, x) + RegIncBeta(b, a, 1-x)
		return approxEq(s, 1, 1e-9)
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestRegGammaKnownValues(t *testing.T) {
	cases := []struct {
		a, x, wantP float64 // P(a, x) = 1 - Q(a, x)
	}{
		// P(1, x) = 1 - e^{-x}.
		{1, 0.5, 1 - math.Exp(-0.5)},
		{1, 3, 1 - math.Exp(-3)},
		// P(1/2, x) = erf(sqrt(x)).
		{0.5, 1, math.Erf(1)},
		{0.5, 4, math.Erf(2)},
		// Cross-checked against scipy.special.gammainc.
		{3, 2, 0.3233235838},
		{10, 10, 0.5420702855},
	}
	for _, c := range cases {
		if got := RegGammaQ(c.a, c.x); !approxEq(got, 1-c.wantP, 1e-8) {
			t.Errorf("RegGammaQ(%v,%v) = %v, want %v", c.a, c.x, got, 1-c.wantP)
		}
	}
}

func TestNormalCDFKnownValues(t *testing.T) {
	cases := []struct{ z, want float64 }{
		{0, 0.5},
		{1, 0.8413447460685429},
		{-1, 0.15865525393145707},
		{1.959963984540054, 0.975},
		{-3, 0.0013498980316300933},
	}
	for _, c := range cases {
		if got := NormalCDF(c.z); !approxEq(got, c.want, 1e-12) {
			t.Errorf("NormalCDF(%v) = %v, want %v", c.z, got, c.want)
		}
	}
}

func TestNormalSFDeepTail(t *testing.T) {
	// NormalSF must stay accurate where 1-CDF would cancel.
	got := NormalSF(8)
	want := 6.22096057427178e-16
	if !approxEq(got, want, 1e-6) {
		t.Errorf("NormalSF(8) = %v, want %v", got, want)
	}
	// exp(-z^2/2) stays representable up to z ≈ 38; check a deep but
	// representable tail stays strictly positive.
	if got := NormalSF(35); got <= 0 {
		t.Errorf("NormalSF(35) underflowed to %v", got)
	}
}

func TestChiSquaredSFKnownValues(t *testing.T) {
	cases := []struct {
		x    float64
		k    int
		want float64
	}{
		// SF of chi2(2) is exp(-x/2).
		{4, 2, math.Exp(-2)},
		{10, 2, math.Exp(-5)},
		// scipy.stats.chi2.sf(7.81, 3) ≈ 0.05004.
		{7.814727903251179, 3, 0.05},
		// scipy.stats.chi2.sf(23.21, 10) ≈ 0.01.
		{23.209251158954356, 10, 0.01},
	}
	for _, c := range cases {
		if got := ChiSquaredSF(c.x, c.k); !approxEq(got, c.want, 1e-6) {
			t.Errorf("ChiSquaredSF(%v,%d) = %v, want %v", c.x, c.k, got, c.want)
		}
	}
	if got := ChiSquaredSF(-1, 3); got != 1 {
		t.Errorf("ChiSquaredSF(-1,3) = %v, want 1", got)
	}
	if got := ChiSquaredSF(1, 0); !math.IsNaN(got) {
		t.Errorf("ChiSquaredSF with k=0 = %v, want NaN", got)
	}
}

func TestLogChoose(t *testing.T) {
	cases := []struct {
		n, k int64
		want float64
	}{
		{5, 2, math.Log(10)},
		{10, 0, 0},
		{10, 10, 0},
		{52, 5, math.Log(2598960)},
	}
	for _, c := range cases {
		if got := LogChoose(c.n, c.k); !approxEq(got, c.want, 1e-10) {
			t.Errorf("LogChoose(%d,%d) = %v, want %v", c.n, c.k, got, c.want)
		}
	}
	if got := LogChoose(5, 7); !math.IsInf(got, -1) {
		t.Errorf("LogChoose(5,7) = %v, want -Inf", got)
	}
}

func TestLogChoosePascal(t *testing.T) {
	// C(n,k) = C(n-1,k-1) + C(n-1,k), verified in linear space for
	// moderate n where exp is exact enough.
	for n := int64(2); n <= 40; n++ {
		for k := int64(1); k < n; k++ {
			lhs := math.Exp(LogChoose(n, k))
			rhs := math.Exp(LogChoose(n-1, k-1)) + math.Exp(LogChoose(n-1, k))
			if !approxEq(lhs, rhs, 1e-9) {
				t.Fatalf("Pascal identity failed at n=%d k=%d: %v vs %v", n, k, lhs, rhs)
			}
		}
	}
}

func TestLogBeta(t *testing.T) {
	// B(1,1)=1, B(2,3)=1/12, B(0.5,0.5)=pi.
	cases := []struct{ a, b, want float64 }{
		{1, 1, 0},
		{2, 3, math.Log(1.0 / 12)},
		{0.5, 0.5, math.Log(math.Pi)},
	}
	for _, c := range cases {
		if got := LogBeta(c.a, c.b); !approxEq(got, c.want, 1e-12) {
			t.Errorf("LogBeta(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}
