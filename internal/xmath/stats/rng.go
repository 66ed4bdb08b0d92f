// Package stats provides the small statistical toolkit used throughout the
// MEGsim reproduction: descriptive statistics, relative-error helpers,
// percentiles and confidence bounds, and a deterministic random number
// generator.
//
// Everything in this package is deterministic given explicit seeds; no
// global random state is used anywhere in the repository so that every
// experiment is reproducible bit-for-bit.
package stats

import "math"

// RNG is a small, fast, deterministic pseudo-random number generator based
// on splitmix64. It is intentionally not math/rand: the stream must be
// stable across Go releases because workload generation, k-means seeding and
// the random sub-sampling baseline all derive from it.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed. Two generators constructed
// with the same seed produce identical streams.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed}
}

// The odd constants of splitmix64: MixGamma is the generator's state
// increment, MixMul1 and MixMul2 the finalizer's multipliers. Callers
// that key Mix64 on several coordinates spread each coordinate with a
// different one of them first.
const (
	MixGamma uint64 = 0x9E3779B97F4A7C15
	MixMul1  uint64 = 0xBF58476D1CE4E5B9
	MixMul2  uint64 = 0x94D049BB133111EB
)

// Mix64 is the splitmix64 finalizer, the one seed-keyed hash of the
// repository: a bijection whose every output bit depends on every input
// bit. Deterministic fault, chaos, audit, backoff and reservoir draws
// are Mix64 of their mixed coordinates, so they are pure functions of
// those coordinates and never of execution order.
func Mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= MixMul1
	x ^= x >> 27
	x *= MixMul2
	return x ^ (x >> 31)
}

// Unit maps 64 random bits to a float64 in [0, 1) using the top 53.
func Unit(x uint64) float64 { return float64(x>>11) / (1 << 53) }

// Uint64 returns the next 64 bits of the stream.
func (r *RNG) Uint64() uint64 {
	r.state += MixGamma
	return Mix64(r.state)
}

// Intn returns a uniformly distributed int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn called with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniformly distributed float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return Unit(r.Uint64())
}

// Range returns a uniformly distributed float64 in [lo, hi).
func (r *RNG) Range(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Norm returns a normally distributed float64 with the given mean and
// standard deviation, using the Box-Muller transform.
func (r *RNG) Norm(mean, stddev float64) float64 {
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	return mean + stddev*z
}

// Perm returns a pseudo-random permutation of [0, n) (Fisher-Yates).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Sample returns k distinct indices drawn uniformly from [0, n) in
// selection order. It panics if k > n or k < 0.
func (r *RNG) Sample(n, k int) []int {
	if k < 0 || k > n {
		panic("stats: Sample called with k out of range")
	}
	return r.Perm(n)[:k]
}

// Split derives an independent child generator. The child stream is a
// deterministic function of the parent state, and advancing the child does
// not affect the parent (beyond the single draw consumed here).
func (r *RNG) Split() *RNG {
	return NewRNG(r.Uint64() ^ 0xd1b54a32d192ed03)
}
