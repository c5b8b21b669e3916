// Package stats provides the statistical substrate for the tomography
// estimators and the workload generators: a seedable RNG with the
// distributions the system needs, streaming moments, and the error metric
// used by the evaluation harness.
package stats

import (
	"math"
	"math/rand"
)

// RNG is a seedable random source exposing the distributions the system
// uses. It is a thin wrapper over math/rand on a stats-owned source that
// draws exactly what rand.NewSource would, so every simulation and
// estimator run is reproducible from a single seed and matches the stdlib
// bit for bit; only seeding is cheaper.
type RNG struct {
	r *rand.Rand
}

// NewRNG returns a deterministic RNG seeded with seed.
func NewRNG(seed int64) *RNG {
	src := new(source)
	src.Seed(seed)
	return &RNG{r: rand.New(src)}
}

// Reseed restarts the RNG as NewRNG(seed) would, without allocating and
// in O(1) (the draws seed the register's slots as they first read them): a
// long-lived RNG reseeded per task replaces one fresh RNG per task.
func (g *RNG) Reseed(seed int64) { g.r.Seed(seed) }

// Float64 returns a uniform sample in [0,1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Intn returns a uniform sample in [0,n).
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Bernoulli returns true with probability p.
func (g *RNG) Bernoulli(p float64) bool { return g.r.Float64() < p }

// Normal returns a sample from N(mu, sigma²).
func (g *RNG) Normal(mu, sigma float64) float64 {
	return mu + sigma*g.r.NormFloat64()
}

// Exponential returns a sample from Exp(rate); mean is 1/rate.
func (g *RNG) Exponential(rate float64) float64 {
	if rate <= 0 {
		panic("stats: Exponential rate must be positive")
	}
	return g.r.ExpFloat64() / rate
}

// Geometric returns the number of failures before the first success for
// success probability p (support {0,1,2,...}).
func (g *RNG) Geometric(p float64) int {
	if p <= 0 || p > 1 {
		panic("stats: Geometric p must be in (0,1]")
	}
	if p == 1 {
		return 0
	}
	u := g.r.Float64()
	return int(math.Floor(math.Log1p(-u) / math.Log1p(-p)))
}

// Perm returns a random permutation of [0,n).
func (g *RNG) Perm(n int) []int { return g.r.Perm(n) }

// Shuffle shuffles n elements using swap.
func (g *RNG) Shuffle(n int, swap func(i, j int)) { g.r.Shuffle(n, swap) }

// Fork returns a new RNG deterministically derived from this one, for
// giving independent streams to subcomponents.
func (g *RNG) Fork() *RNG {
	return NewRNG(g.r.Int63())
}
