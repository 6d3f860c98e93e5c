// Package rng provides deterministic, splittable pseudo-random number
// generation for the dima simulator.
//
// Every simulated compute node owns an independent stream derived from a
// single experiment seed, so that (a) whole experiments are exactly
// reproducible from one uint64, (b) per-node streams are statistically
// independent, and (c) the goroutine-per-node runtime and the sequential
// lockstep runtime draw identical random decisions for the same seed,
// regardless of scheduling.
//
// The generator is xoshiro256**, seeded through splitmix64, following the
// reference constructions by Blackman and Vigna. Both are implemented here
// from the public-domain reference algorithms; no external code is used.
package rng

import (
	"math"
	"math/bits"
)

// SplitMix64 is a tiny 64-bit generator used to seed and to derive
// sub-stream seeds. It is a struct so that deriving many children from a
// parent seed is allocation-free.
type SplitMix64 struct {
	state uint64
}

// NewSplitMix64 returns a SplitMix64 seeded with seed.
func NewSplitMix64(seed uint64) *SplitMix64 {
	return &SplitMix64{state: seed}
}

// Next returns the next 64-bit value in the stream.
func (s *SplitMix64) Next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Mix64 hashes x through the splitmix64 finalizer. It is used for
// deterministic tie-breaking priorities (e.g. same-round claim conflicts)
// where a high-quality stateless hash of a composite key is needed.
func Mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Rand is a xoshiro256** generator. The zero value is invalid; construct
// with New or Derive.
type Rand struct {
	s0, s1, s2, s3 uint64
}

// New returns a generator seeded from seed via splitmix64, per the
// xoshiro reference seeding procedure.
func New(seed uint64) *Rand {
	r := seeded(seed)
	return &r
}

// seeded is New by value.
func seeded(seed uint64) Rand {
	sm := SplitMix64{state: seed}
	r := Rand{s0: sm.Next(), s1: sm.Next(), s2: sm.Next(), s3: sm.Next()}
	// Guard against the (astronomically unlikely) all-zero state, which
	// is the single fixed point of xoshiro.
	if r.s0|r.s1|r.s2|r.s3 == 0 {
		r.s0 = 0x9e3779b97f4a7c15
	}
	return r
}

// Derive returns a child generator for stream index i. Children of
// distinct indices, and the parent itself, produce independent streams.
// Derive does not disturb the parent's state.
func (r *Rand) Derive(i uint64) *Rand {
	c := r.Child(i)
	return &c
}

// Child is Derive by value: the same stream, with no heap allocation
// when the caller stores the generator in place.
func (r *Rand) Child(i uint64) Rand {
	// Combine the parent's state with the index through strong mixing;
	// the parent state is read, not advanced, so Child is repeatable.
	h := Mix64(r.s0 ^ Mix64(i+0x632be59bd9b4e019))
	h ^= Mix64(r.s2 + i)
	return seeded(h)
}

// Uint64 returns a uniformly distributed 64-bit value.
func (r *Rand) Uint64() uint64 {
	result := bits.RotateLeft64(r.s1*5, 7) * 9
	t := r.s1 << 17
	r.s2 ^= r.s0
	r.s3 ^= r.s1
	r.s1 ^= r.s2
	r.s0 ^= r.s3
	r.s2 ^= t
	r.s3 = bits.RotateLeft64(r.s3, 45)
	return result
}

// Uint64n returns a uniform value in [0, n). It panics if n == 0.
// Uses Lemire's multiply-shift rejection method to avoid modulo bias.
func (r *Rand) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n with n == 0")
	}
	// Fast path for powers of two.
	if n&(n-1) == 0 {
		return r.Uint64() & (n - 1)
	}
	hi, lo := bits.Mul64(r.Uint64(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(r.Uint64(), n)
		}
	}
	return hi
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with n <= 0")
	}
	return int(r.Uint64n(uint64(n)))
}

// Float64 returns a uniform float64 in [0, 1) with 53 bits of precision.
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns an unbiased random boolean — the "coin toss" that selects
// the Invite or Listen state in the automaton's C state.
func (r *Rand) Bool() bool {
	return r.Uint64()&1 == 1
}

// Perm returns a uniform random permutation of [0, n) as a slice.
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.ShuffleInts(p)
	return p
}

// ShuffleInts permutes s uniformly in place (Fisher–Yates).
func (r *Rand) ShuffleInts(s []int) {
	for i := len(s) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		s[i], s[j] = s[j], s[i]
	}
}

// Shuffle permutes n elements in place using the provided swap function.
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Geometric returns a sample from the geometric distribution with success
// probability p (number of trials until first success, >= 1). Used by
// skip-sampling graph generators. Panics unless 0 < p <= 1.
func (r *Rand) Geometric(p float64) int {
	if p <= 0 || p > 1 {
		panic("rng: Geometric requires 0 < p <= 1")
	}
	if p == 1 {
		return 1
	}
	// Inverse transform: ceil(ln(1-u)/ln(1-p)).
	u := r.Float64()
	n := int(math.Log1p(-u)/math.Log1p(-p)) + 1
	if n < 1 {
		n = 1
	}
	return n
}

// Binomial returns a sample from Binomial(n, p) by direct simulation for
// small n and by skip-sampling for large n with small p.
func (r *Rand) Binomial(n int, p float64) int {
	if n < 0 || p < 0 || p > 1 {
		panic("rng: Binomial parameters out of range")
	}
	if p == 0 || n == 0 {
		return 0
	}
	if p == 1 {
		return n
	}
	if n <= 64 {
		k := 0
		for i := 0; i < n; i++ {
			if r.Float64() < p {
				k++
			}
		}
		return k
	}
	// Skip-sampling: count successes by jumping geometric gaps.
	k := 0
	i := -1
	for {
		i += r.Geometric(p)
		if i >= n {
			return k
		}
		k++
	}
}
