// Package stats provides the seeded randomness and summary-statistics
// substrate shared by the workload generator, the randomized-rounding
// procedure of MAA, and the evaluation harness.
//
// All randomness in the repository flows through RNG so that every
// experiment is reproducible bit-for-bit from a single seed.
package stats

import (
	"math/rand"
)

// RNG is a seeded source of the random primitives used across the project.
// It wraps math/rand.Rand rather than exposing it so call sites stay
// restricted to the distributions we actually rely on.
//
// An RNG is NOT safe for concurrent use: every draw mutates the
// underlying generator state. Concurrent code must give each goroutine
// its own generator or pre-draw the values it needs while still
// single-threaded.
type RNG struct {
	r *rand.Rand
}

// NewRNG returns a deterministic generator for the given seed.
func NewRNG(seed int64) *RNG {
	return &RNG{r: rand.New(rand.NewSource(seed))}
}

// Reseed makes g draw what NewRNG(seed) draws, in g's own source: a
// loop that seeds one generator per run allocates it once. The zero RNG
// may be reseeded.
func (g *RNG) Reseed(seed int64) {
	if g.r == nil {
		g.r = rand.New(rand.NewSource(seed))
		return
	}
	g.r.Seed(seed)
}

// SplitMix64 is the SplitMix64 output function: a bijective avalanche
// mix, the standard way to derive well-separated child seeds (or any
// fixed, well-spread key) from sequential inputs.
func SplitMix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Float64 returns a uniform sample from [0, 1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Uniform returns a uniform sample from [lo, hi).
func (g *RNG) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*g.r.Float64()
}

// Intn returns a uniform sample from {0, ..., n-1}. n must be positive.
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// IntBetween returns a uniform sample from {lo, ..., hi} (inclusive).
// It requires lo <= hi.
func (g *RNG) IntBetween(lo, hi int) int {
	return lo + g.r.Intn(hi-lo+1)
}

// Perm returns a random permutation of {0, ..., n-1}.
func (g *RNG) Perm(n int) []int { return g.r.Perm(n) }

// PickWeighted returns an index in [0, len(weights)) chosen with
// probability proportional to weights[i]. Non-positive weights are
// treated as zero. If all weights are zero it returns -1 without
// consuming a draw.
func (g *RNG) PickWeighted(weights []float64) int {
	if !HasPositiveWeight(weights) {
		return -1
	}
	return PickWeightedWith(g.r.Float64(), weights)
}

// HasPositiveWeight reports whether any weight is strictly positive —
// exactly the condition under which PickWeighted consumes one uniform.
// Callers that pre-draw uniforms for PickWeightedWith use it to
// replicate PickWeighted's stream consumption.
func HasPositiveWeight(weights []float64) bool {
	for _, w := range weights {
		if w > 0 {
			return true
		}
	}
	return false
}

// PickWeightedWith is PickWeighted driven by an externally supplied
// uniform u ∈ [0, 1) instead of the generator's own stream. For u drawn
// from an RNG it returns exactly what PickWeighted would have: the same
// total, the same scan, the same fallback. It lets callers pre-draw one
// uniform per pick sequentially and then evaluate the picks in
// parallel without changing any outcome.
func PickWeightedWith(u float64, weights []float64) int {
	var total float64
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		return -1
	}
	u *= total
	var acc float64
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		acc += w
		if u < acc {
			return i
		}
	}
	// Floating-point slack: fall back to the last positive weight.
	for i := len(weights) - 1; i >= 0; i-- {
		if weights[i] > 0 {
			return i
		}
	}
	return -1
}
