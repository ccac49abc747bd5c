// Package stats provides the statistical toolkit the audit engine is built
// on: a deterministic random number generator, special functions (log-gamma,
// regularized incomplete beta and gamma), exact and approximate binomial
// tests, Fisher's method for combining p-values, empirical CDFs, quantiles,
// histograms, and summary statistics.
//
// Everything is implemented from scratch on the standard library so that the
// simulation and the audits are reproducible bit-for-bit across runs and
// platforms.
package stats

import "math"

// RNG is a small, fast, deterministic pseudo-random generator based on
// SplitMix64 for stream derivation and xoshiro256** for generation. It is
// not safe for concurrent use; derive independent streams with Fork instead
// of sharing one generator across goroutines.
type RNG struct {
	s [4]uint64
	// cached spare normal deviate for NormFloat64 (polar method)
	haveSpare bool
	spare     float64
}

// splitmix64 advances a SplitMix64 state and returns the next output.
// It is used to seed the main generator and to derive forked streams.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// NewRNG returns a generator seeded deterministically from seed.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	sm := seed
	for i := range r.s {
		r.s[i] = splitmix64(&sm)
	}
	// xoshiro must not start from the all-zero state.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return r
}

// Fork derives an independent substream identified by label. Two forks of
// the same generator with different labels produce uncorrelated streams, and
// forking does not disturb the parent stream.
func (r *RNG) Fork(label uint64) *RNG {
	// Mix the parent state with the label through SplitMix64 so forks are
	// stable regardless of how much the parent has been consumed since
	// creation would not hold; instead we hash the parent's *current* state.
	sm := r.s[0] ^ (r.s[1] << 1) ^ (r.s[2] >> 1) ^ r.s[3] ^ (label * 0xd1342543de82ef95)
	return NewRNG(splitmix64(&sm))
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with non-positive n")
	}
	return int(r.Uint64n(uint64(n)))
}

// Int63n returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Int63n(n int64) int64 {
	if n <= 0 {
		panic("stats: Int63n with non-positive n")
	}
	return int64(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniform value in [0, n) without modulo bias
// (Lemire's multiply-shift rejection method).
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("stats: Uint64n with zero n")
	}
	for {
		v := r.Uint64()
		hi, lo := mul64(v, n)
		if lo >= n || lo >= -n%n {
			return hi
		}
	}
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 1<<32 - 1
	a0, a1 := a&mask, a>>32
	b0, b1 := b&mask, b>>32
	w0 := a0 * b0
	t := a1*b0 + w0>>32
	w1 := t&mask + a0*b1
	hi = a1*b1 + t>>32 + w1>>32
	lo = a * b
	return
}

// NormFloat64 returns a standard normal deviate using the Marsaglia polar
// method with a cached spare.
func (r *RNG) NormFloat64() float64 {
	if r.haveSpare {
		r.haveSpare = false
		return r.spare
	}
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		f := math.Sqrt(-2 * math.Log(s) / s)
		r.spare = v * f
		r.haveSpare = true
		return u * f
	}
}

// ExpFloat64 returns an exponentially distributed deviate with mean 1.
func (r *RNG) ExpFloat64() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return -math.Log(u)
		}
	}
}

// LogNormal returns a deviate whose logarithm is normal with the given
// location mu and scale sigma.
func (r *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*r.NormFloat64())
}

// Shuffle randomizes the order of n elements using the provided swap
// function (Fisher–Yates).
//
//lint:allow deadcode seam: core's property and equivalence tests shuffle their random blocks with it (randomBlock, randomChain, TestViolationFractionBoundsProperty)
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// SampleInts returns k distinct indices drawn uniformly from [0, n) in
// selection order. It panics if k > n or either is negative.
func (r *RNG) SampleInts(n, k int) []int {
	if k < 0 || n < 0 || k > n {
		panic("stats: SampleInts with invalid arguments")
	}
	// Floyd's algorithm: O(k) expected, no O(n) scratch.
	chosen := make(map[int]struct{}, k)
	out := make([]int, 0, k)
	for j := n - k; j < n; j++ {
		t := r.Intn(j + 1)
		if _, dup := chosen[t]; dup {
			t = j
		}
		chosen[t] = struct{}{}
		out = append(out, t)
	}
	return out
}
