// Package util provides deterministic pseudo-randomness and small numeric
// helpers shared by the simulator. All stochastic decisions in the simulator
// (stochastic replacement, counter sampling, victim selection, synthetic
// trace generation) draw from util.RNG so that a run is reproducible
// bit-for-bit from its seed.
package util

// RNG is a SplitMix64 pseudo-random number generator. It is small, fast,
// passes BigCrush, and — unlike math/rand's global state — gives every
// component its own deterministic stream. The zero value is a valid
// generator seeded with 0; prefer NewRNG to mix the seed first.
type RNG struct {
	state uint64
}

// gamma is SplitMix64's state increment (2^64 divided by the golden
// ratio, made odd).
const gamma = 0x9E3779B97F4A7C15

// NewRNG returns a generator whose stream is determined entirely by seed.
func NewRNG(seed uint64) *RNG {
	r := &RNG{state: seed}
	// Warm the state so that small, similar seeds (0, 1, 2...) produce
	// uncorrelated streams from the first draw.
	r.Uint64()
	return r
}

// Uint64 returns the next value in the stream.
func (r *RNG) Uint64() uint64 {
	r.state += gamma
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Skip advances the stream by n draws in O(1): a draw adds gamma to
// the state before mixing it, so n draws add n·gamma. After Skip(n) the
// next draw equals the (n+1)-th draw the stream would have made.
func (r *RNG) Skip(n uint64) { r.state += n * gamma }

// Intn returns a uniform value in [0, n). It panics if n <= 0, matching
// math/rand semantics.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("util: Intn called with n <= 0")
	}
	return int(r.Uint64() % uint64(n))
}

// Uint64n returns a uniform value in [0, n). It panics if n == 0.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("util: Uint64n called with n == 0")
	}
	return r.Uint64() % n
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	// 53 high-quality bits → [0,1) with full double precision.
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p. p outside [0,1] saturates.
func (r *RNG) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Fork derives an independent child generator. Deriving children rather
// than sharing one stream keeps component behavior stable when an unrelated
// component adds or removes draws.
func (r *RNG) Fork() *RNG {
	return NewRNG(r.Uint64())
}

// Perm returns a pseudo-random permutation of [0, n) using Fisher-Yates.
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
