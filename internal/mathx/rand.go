package mathx

import (
	"fmt"
	"math"
	"math/rand"
	randv2 "math/rand/v2"
)

// RNG wraps *rand.Rand with the distribution samplers the simulators
// need. Every stochastic component in this repository takes an explicit
// RNG so that experiments are reproducible bit-for-bit from a seed.
type RNG struct {
	*rand.Rand
}

// NewRNG returns a seeded RNG.
func NewRNG(seed int64) *RNG {
	return &RNG{Rand: rand.New(rand.NewSource(seed))}
}

// pcgSource adapts math/rand/v2's PCG generator to the math/rand
// Source64 interface so the samplers on RNG work unchanged on top of
// it. PCG's 128-bit state makes it cheap to derive many independent
// streams from (seed, stream) pairs — the basis of the parallel
// engine's sharded RNG.
type pcgSource struct {
	*randv2.PCG
}

func (s pcgSource) Int63() int64 { return int64(s.Uint64() >> 1) }

// Seed is required by the math/rand Source interface; a PCG stream is
// seeded once at construction and never reseeded.
func (s pcgSource) Seed(int64) {
	panic("mathx: reseeding a PCG-backed RNG is not supported; construct a new one")
}

// NewPCG returns an RNG backed by an independent PCG stream determined
// entirely by (seed, stream). Distinct stream values yield statistically
// independent sequences, so parallel shards can each own one without
// coordinating.
func NewPCG(seed, stream uint64) *RNG {
	return &RNG{Rand: rand.New(pcgSource{randv2.NewPCG(seed, stream)})}
}

// Normal samples N(mu, sigma²).
func (r *RNG) Normal(mu, sigma float64) float64 {
	return mu + sigma*r.NormFloat64()
}

// LogNormal samples a log-normal variate whose underlying normal has the
// given mu and sigma.
func (r *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(r.Normal(mu, sigma))
}

// Exponential samples an exponential variate with the given rate λ.
func (r *RNG) Exponential(rate float64) float64 {
	if rate <= 0 {
		panic("mathx: Exponential needs rate > 0")
	}
	return r.ExpFloat64() / rate
}

// Bernoulli returns true with probability p.
func (r *RNG) Bernoulli(p float64) bool {
	return r.Float64() < p
}

// Categorical samples an index proportional to the given non-negative
// weights. It panics when all weights are zero or any is negative.
func (r *RNG) Categorical(weights []float64) int {
	total := 0.0
	for i, w := range weights {
		if w < 0 || math.IsNaN(w) {
			panic(fmt.Sprintf("mathx: negative or NaN weight %g at index %d", w, i))
		}
		total += w
	}
	if total <= 0 {
		panic("mathx: Categorical needs positive total weight")
	}
	u := r.Float64() * total
	acc := 0.0
	for i, w := range weights {
		acc += w
		if u < acc {
			return i
		}
	}
	return len(weights) - 1 // floating-point slack
}

// Uniform samples uniformly from [lo, hi).
func (r *RNG) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}
