package des

// Deterministic pseudo-random source for simulations.
//
// math/rand would work, but a self-contained SplitMix64/xoshiro-style
// generator keeps executions reproducible across Go releases (math/rand's
// unexported algorithm changed between versions) and lets us fork
// independent streams per node/link so that adding a node does not
// perturb the random choices seen by others.

import "math"

// Rand is a small, fast, deterministic PRNG (SplitMix64 core). The zero
// value is a valid generator seeded with 0.
type Rand struct {
	state uint64
}

// NewRand returns a generator seeded with seed.
func NewRand(seed uint64) *Rand {
	return &Rand{state: seed}
}

// ForkInto reseeds dst to an independent stream keyed by id. Streams
// forked with distinct ids from the same parent are statistically
// independent; forking in place lets reusable harnesses (the sim arena)
// rewire their per-subsystem streams without allocating.
func (r *Rand) ForkInto(id uint64, dst *Rand) {
	dst.state = forkState(r.state, id)
}

// Reseed resets the generator in place to the state NewRand(seed) would
// produce.
func (r *Rand) Reseed(seed uint64) { r.state = seed }

// forkState mixes the id through one SplitMix64 round of a copy of the
// parent state; the parent is never advanced.
func forkState(state, id uint64) uint64 {
	z := state + 0x9e3779b97f4a7c15*(id+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Uint64 returns the next 64 uniformly random bits.
func (r *Rand) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Range returns a uniform float64 in [lo, hi). It panics if hi < lo.
func (r *Rand) Range(lo, hi float64) float64 {
	if hi < lo {
		panic("des: Range with hi < lo")
	}
	return lo + (hi-lo)*r.Float64()
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("des: Intn with n <= 0")
	}
	return int(r.Uint64() % uint64(n))
}

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool {
	return r.Float64() < p
}

// Exp returns an exponentially distributed float64 with mean mean.
func (r *Rand) Exp(mean float64) float64 {
	// Inverse CDF; guard against log(0).
	u := r.Float64()
	if u >= 1 {
		u = 1 - 1.0/(1<<53)
	}
	return -mean * math.Log(1-u)
}
