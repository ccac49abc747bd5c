package stats

import (
	"math"
)

// Special functions needed by the exact statistical tests: the regularized
// incomplete beta function (binomial tails) and the regularized incomplete
// gamma function (chi-squared tails for Fisher's method). Implementations
// follow the classic series/continued-fraction formulations (Lentz's method
// with the usual tiny-value guards), using math.Lgamma from the standard
// library for log-gamma.

const (
	sfEpsilon = 3e-14
	sfFPMin   = 1e-300
	sfMaxIter = 500
)

// LogBeta returns log(B(a, b)) = lgamma(a) + lgamma(b) - lgamma(a+b).
func LogBeta(a, b float64) float64 {
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	return la + lb - lab
}

// RegIncBeta returns the regularized incomplete beta function I_x(a, b)
// for a, b > 0 and x in [0, 1].
func RegIncBeta(a, b, x float64) float64 {
	switch {
	case math.IsNaN(a) || math.IsNaN(b) || math.IsNaN(x):
		return math.NaN()
	case a <= 0 || b <= 0:
		return math.NaN()
	case x <= 0:
		return 0
	case x >= 1:
		return 1
	}
	// Prefactor x^a (1-x)^b / (a B(a,b)), computed in log space.
	logPre := a*math.Log(x) + b*math.Log1p(-x) - LogBeta(a, b)
	// Use the continued fraction directly when x is below the switch point,
	// and the symmetry relation I_x(a,b) = 1 - I_{1-x}(b,a) otherwise.
	if x < (a+1)/(a+b+2) {
		return math.Exp(logPre) * betaCF(a, b, x) / a
	}
	return 1 - math.Exp(logPre)*betaCF(b, a, 1-x)/b
}

// betaCF evaluates the continued fraction for the incomplete beta function
// by the modified Lentz method.
func betaCF(a, b, x float64) float64 {
	qab := a + b
	qap := a + 1
	qam := a - 1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < sfFPMin {
		d = sfFPMin
	}
	d = 1 / d
	h := d
	for m := 1; m <= sfMaxIter; m++ {
		m2 := float64(2 * m)
		fm := float64(m)
		aa := fm * (b - fm) * x / ((qam + m2) * (a + m2))
		d = 1 + aa*d
		if math.Abs(d) < sfFPMin {
			d = sfFPMin
		}
		c = 1 + aa/c
		if math.Abs(c) < sfFPMin {
			c = sfFPMin
		}
		d = 1 / d
		h *= d * c
		aa = -(a + fm) * (qab + fm) * x / ((a + m2) * (qap + m2))
		d = 1 + aa*d
		if math.Abs(d) < sfFPMin {
			d = sfFPMin
		}
		c = 1 + aa/c
		if math.Abs(c) < sfFPMin {
			c = sfFPMin
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < sfEpsilon {
			return h
		}
	}
	// Converged poorly; the partial evaluation is still the best estimate.
	return h
}

// RegGammaQ returns the regularized upper incomplete gamma function
// Q(a, x) = 1 - P(a, x).
func RegGammaQ(a, x float64) float64 {
	switch {
	case math.IsNaN(a) || math.IsNaN(x):
		return math.NaN()
	case a <= 0 || x < 0:
		return math.NaN()
	case x == 0:
		return 1
	}
	if x < a+1 {
		return 1 - gammaSeries(a, x)
	}
	return gammaCF(a, x)
}

// gammaSeries evaluates P(a, x) by its power series, valid for x < a+1.
func gammaSeries(a, x float64) float64 {
	lg, _ := math.Lgamma(a)
	ap := a
	sum := 1 / a
	del := sum
	for n := 0; n < sfMaxIter; n++ {
		ap++
		del *= x / ap
		sum += del
		if math.Abs(del) < math.Abs(sum)*sfEpsilon {
			break
		}
	}
	return sum * math.Exp(-x+a*math.Log(x)-lg)
}

// gammaCF evaluates Q(a, x) by continued fraction, valid for x >= a+1.
func gammaCF(a, x float64) float64 {
	lg, _ := math.Lgamma(a)
	b := x + 1 - a
	c := 1 / sfFPMin
	d := 1 / b
	h := d
	for i := 1; i <= sfMaxIter; i++ {
		an := -float64(i) * (float64(i) - a)
		b += 2
		d = an*d + b
		if math.Abs(d) < sfFPMin {
			d = sfFPMin
		}
		c = b + an/c
		if math.Abs(c) < sfFPMin {
			c = sfFPMin
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < sfEpsilon {
			break
		}
	}
	return h * math.Exp(-x+a*math.Log(x)-lg)
}

// NormalCDF returns the standard normal cumulative distribution function
// Φ(z).
func NormalCDF(z float64) float64 {
	return 0.5 * math.Erfc(-z/math.Sqrt2)
}

// NormalSF returns the standard normal survival function 1 - Φ(z), computed
// without cancellation for large z.
func NormalSF(z float64) float64 {
	return 0.5 * math.Erfc(z/math.Sqrt2)
}

// ChiSquaredSF returns the survival function of a chi-squared distribution
// with k degrees of freedom evaluated at x.
func ChiSquaredSF(x float64, k int) float64 {
	if k <= 0 {
		return math.NaN()
	}
	if x <= 0 {
		return 1
	}
	return RegGammaQ(float64(k)/2, x/2)
}
