package stats

import (
	"math"
	"testing"
)

func TestBenjaminiHochbergKnown(t *testing.T) {
	// Classic worked example: p = {0.01, 0.04, 0.03, 0.005}.
	// Sorted: 0.005, 0.01, 0.03, 0.04 with m=4:
	// raw: 0.02, 0.02, 0.04, 0.04; step-up keeps them monotone.
	p := []float64{0.01, 0.04, 0.03, 0.005}
	q, err := BenjaminiHochberg(p)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0.02, 0.04, 0.04, 0.02}
	for i := range want {
		if math.Abs(q[i]-want[i]) > 1e-12 {
			t.Errorf("q[%d] = %v, want %v", i, q[i], want[i])
		}
	}
}

func TestBenjaminiHochbergMonotoneAndBounded(t *testing.T) {
	p := []float64{0.001, 0.2, 0.9, 0.04, 0.5, 1.0, 0}
	q, err := BenjaminiHochberg(p)
	if err != nil {
		t.Fatal(err)
	}
	for i := range p {
		if q[i] < p[i]-1e-12 {
			t.Errorf("q[%d]=%v below p=%v", i, q[i], p[i])
		}
		if q[i] > 1 {
			t.Errorf("q[%d]=%v above 1", i, q[i])
		}
	}
	// Identical p-values share identical q-values.
	q2, _ := BenjaminiHochberg([]float64{0.5, 0.5, 0.5})
	if q2[0] != q2[1] || q2[1] != q2[2] {
		t.Error("ties broken inconsistently")
	}
}

func TestBenjaminiHochbergSingle(t *testing.T) {
	q, err := BenjaminiHochberg([]float64{0.03})
	if err != nil || q[0] != 0.03 {
		t.Errorf("single hypothesis: %v %v", q, err)
	}
}

func TestBenjaminiHochbergErrors(t *testing.T) {
	if _, err := BenjaminiHochberg(nil); err == nil {
		t.Error("empty accepted")
	}
	if _, err := BenjaminiHochberg([]float64{1.5}); err == nil {
		t.Error("p>1 accepted")
	}
	if _, err := BenjaminiHochberg([]float64{math.NaN()}); err == nil {
		t.Error("NaN accepted")
	}
}

func TestFDRReject(t *testing.T) {
	// One overwhelming signal among noise must survive; noise must not.
	p := []float64{1e-12, 0.4, 0.7, 0.9, 0.2}
	q, err := BenjaminiHochberg(p)
	if err != nil {
		t.Fatal(err)
	}
	if q[0] > 0.01 {
		t.Error("strong signal not rejected")
	}
	for i := 1; i < len(q); i++ {
		if q[i] <= 0.01 {
			t.Errorf("noise hypothesis %d rejected", i)
		}
	}
}

func TestFDRControlsUnderNull(t *testing.T) {
	// All-null families: the chance of any rejection at level alpha is
	// about alpha. Count families with at least one rejection.
	rng := NewRNG(404)
	families := 400
	famSize := 20
	alpha := 0.05
	rejections := 0
	for f := 0; f < families; f++ {
		p := make([]float64, famSize)
		for i := range p {
			p[i] = rng.Float64()
		}
		q, err := BenjaminiHochberg(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range q {
			if v <= alpha {
				rejections++
				break
			}
		}
	}
	frac := float64(rejections) / float64(families)
	if frac > 2.5*alpha {
		t.Errorf("false discovery family rate = %v at alpha %v", frac, alpha)
	}
}
