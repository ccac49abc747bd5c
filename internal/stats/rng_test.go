package stats

import (
	"math"
	"testing"
)

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 1000; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("draw %d diverged: %d vs %d", i, av, bv)
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical draws of 100", same)
	}
}

func TestRNGForkIndependence(t *testing.T) {
	parent := NewRNG(7)
	f1 := parent.Fork(1)
	f2 := parent.Fork(2)
	if f1.Uint64() == f2.Uint64() {
		t.Fatal("forks with different labels produced identical first draw")
	}
	// Forking must not perturb the parent stream.
	ref := NewRNG(7)
	_ = ref.Fork(1)
	_ = ref.Fork(2)
	for i := 0; i < 100; i++ {
		want := NewRNG(7)
		_ = want
	}
	p1 := parent.Uint64()
	r1 := ref.Uint64()
	if p1 != r1 {
		t.Fatalf("forking perturbed parent stream: %d vs %d", p1, r1)
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 100000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
	}
}

func TestFloat64MeanVariance(t *testing.T) {
	r := NewRNG(5)
	n := 200000
	var sum, sq float64
	for i := 0; i < n; i++ {
		v := r.Float64()
		sum += v
		sq += v * v
	}
	mean := sum / float64(n)
	variance := sq/float64(n) - mean*mean
	if math.Abs(mean-0.5) > 0.005 {
		t.Errorf("uniform mean = %v, want ~0.5", mean)
	}
	if math.Abs(variance-1.0/12) > 0.005 {
		t.Errorf("uniform variance = %v, want ~%v", variance, 1.0/12)
	}
}

func TestIntnBounds(t *testing.T) {
	r := NewRNG(11)
	seen := make(map[int]int)
	for i := 0; i < 60000; i++ {
		v := r.Intn(6)
		if v < 0 || v >= 6 {
			t.Fatalf("Intn(6) out of range: %d", v)
		}
		seen[v]++
	}
	for k, c := range seen {
		if c < 9000 || c > 11000 {
			t.Errorf("Intn(6) value %d occurred %d times, want ~10000", k, c)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestUint64nUnbiasedSmallRange(t *testing.T) {
	r := NewRNG(13)
	counts := make([]int, 3)
	n := 90000
	for i := 0; i < n; i++ {
		counts[r.Uint64n(3)]++
	}
	for i, c := range counts {
		if math.Abs(float64(c)-float64(n)/3) > 1000 {
			t.Errorf("Uint64n(3) bucket %d = %d, want ~%d", i, c, n/3)
		}
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := NewRNG(17)
	n := 200000
	var sum, sq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sq += v * v
	}
	mean := sum / float64(n)
	variance := sq/float64(n) - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Errorf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Errorf("normal variance = %v, want ~1", variance)
	}
}

func TestExpFloat64Mean(t *testing.T) {
	r := NewRNG(19)
	n := 200000
	var sum float64
	for i := 0; i < n; i++ {
		v := r.ExpFloat64()
		if v < 0 {
			t.Fatalf("ExpFloat64 negative: %v", v)
		}
		sum += v
	}
	if mean := sum / float64(n); math.Abs(mean-1) > 0.02 {
		t.Errorf("exponential mean = %v, want ~1", mean)
	}
}

func TestLogNormalMedian(t *testing.T) {
	r := NewRNG(23)
	n := 100001
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = r.LogNormal(2, 0.7)
	}
	med := PercentileUnsorted(vals, 50)
	if want := math.Exp(2.0); math.Abs(med-want)/want > 0.05 {
		t.Errorf("lognormal median = %v, want ~%v", med, want)
	}
}

func TestShufflePreservesElements(t *testing.T) {
	r := NewRNG(37)
	s := []int{1, 2, 3, 4, 5, 6, 7, 8}
	sum := 0
	r.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
	for _, v := range s {
		sum += v
	}
	if sum != 36 {
		t.Fatalf("shuffle lost elements: %v", s)
	}
}

func TestSampleIntsDistinct(t *testing.T) {
	r := NewRNG(41)
	for trial := 0; trial < 200; trial++ {
		n := r.Intn(100) + 1
		k := r.Intn(n + 1)
		got := r.SampleInts(n, k)
		if len(got) != k {
			t.Fatalf("SampleInts(%d,%d) returned %d values", n, k, len(got))
		}
		seen := make(map[int]bool, k)
		for _, v := range got {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("SampleInts(%d,%d) invalid value %d in %v", n, k, v, got)
			}
			seen[v] = true
		}
	}
}

func TestSampleIntsCoverage(t *testing.T) {
	// Every element must be reachable: sample half of a small set many times.
	r := NewRNG(43)
	hits := make([]int, 10)
	for i := 0; i < 5000; i++ {
		for _, v := range r.SampleInts(10, 5) {
			hits[v]++
		}
	}
	for i, h := range hits {
		if h < 2000 || h > 3000 {
			t.Errorf("element %d hit %d times of 5000, want ~2500", i, h)
		}
	}
}

func TestSampleIntsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("SampleInts(2,3) did not panic")
		}
	}()
	NewRNG(1).SampleInts(2, 3)
}
