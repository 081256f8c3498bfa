package core

import "fmt"

// Weighted pairs a decision with its probability under some policy.
type Weighted[D comparable] struct {
	Decision D
	Prob     float64
}

// Policy is a stochastic mapping from contexts to decisions: the paper's
// µ(d|c). Distribution must return probabilities that sum to one over
// the support for the given context.
type Policy[C any, D comparable] interface {
	// Distribution returns the decision distribution for context c.
	Distribution(c C) []Weighted[D]
}

// Prob returns µ(d|c) for any policy, zero when d is outside the
// support.
func Prob[C any, D comparable](p Policy[C, D], c C, d D) float64 {
	for _, w := range p.Distribution(c) {
		if w.Decision == d {
			return w.Prob
		}
	}
	return 0
}

// ValidateDistribution checks that a distribution is a proper
// probability vector (non-negative, sums to ~1).
func ValidateDistribution[D comparable](dist []Weighted[D]) error {
	if len(dist) == 0 {
		return fmt.Errorf("core: empty distribution")
	}
	sum := 0.0
	for _, w := range dist {
		if w.Prob < 0 {
			return fmt.Errorf("core: negative probability %g for decision %v", w.Prob, w.Decision)
		}
		sum += w.Prob
	}
	if sum < 0.999 || sum > 1.001 {
		return fmt.Errorf("core: distribution sums to %g", sum)
	}
	return nil
}

// DeterministicPolicy wraps a decision function into a Policy that puts
// probability one on the chosen decision. This models the common
// networking case of §4.1: policies "designed to optimize performance"
// with no randomization.
type DeterministicPolicy[C any, D comparable] struct {
	Choose func(c C) D
}

// Distribution implements Policy.
func (p DeterministicPolicy[C, D]) Distribution(c C) []Weighted[D] {
	return []Weighted[D]{{Decision: p.Choose(c), Prob: 1}}
}

// UniformPolicy chooses uniformly at random among a fixed decision set,
// the fully randomized logging policy used by CFA-style systems.
type UniformPolicy[C any, D comparable] struct {
	Decisions []D
}

// Distribution implements Policy.
func (p UniformPolicy[C, D]) Distribution(C) []Weighted[D] {
	out := make([]Weighted[D], len(p.Decisions))
	q := 1 / float64(len(p.Decisions))
	for i, d := range p.Decisions {
		out[i] = Weighted[D]{Decision: d, Prob: q}
	}
	return out
}

// EpsilonGreedyPolicy follows a base decision function with probability
// 1-ε and explores uniformly over Decisions with probability ε. This is
// the paper's suggested remedy for the coverage problem: "augment
// policies to introduce randomness where impact on overall performance
// is small".
type EpsilonGreedyPolicy[C any, D comparable] struct {
	Base      func(c C) D
	Decisions []D
	Epsilon   float64
}

// Distribution implements Policy.
func (p EpsilonGreedyPolicy[C, D]) Distribution(c C) []Weighted[D] {
	if len(p.Decisions) == 0 {
		panic("core: EpsilonGreedyPolicy has no decisions")
	}
	best := p.Base(c)
	share := p.Epsilon / float64(len(p.Decisions))
	out := make([]Weighted[D], 0, len(p.Decisions)+1)
	seen := false
	for _, d := range p.Decisions {
		pr := share
		if d == best {
			pr += 1 - p.Epsilon
			seen = true
		}
		out = append(out, Weighted[D]{Decision: d, Prob: pr})
	}
	if !seen {
		// Base chose outside the exploration set; give it its greedy mass.
		out = append(out, Weighted[D]{Decision: best, Prob: 1 - p.Epsilon})
	}
	return out
}

// MixturePolicy blends two policies: with probability Alpha it follows A,
// otherwise B. Useful for constructing new policies that partially
// overlap the old one (as in the paper's Figure 7a setup, where 50% of
// ISP-1 clients move to a new configuration).
type MixturePolicy[C any, D comparable] struct {
	A, B  Policy[C, D]
	Alpha float64
}

// Distribution implements Policy.
func (p MixturePolicy[C, D]) Distribution(c C) []Weighted[D] {
	acc := make(map[D]float64)
	var order []D
	for _, w := range p.A.Distribution(c) {
		if _, ok := acc[w.Decision]; !ok {
			order = append(order, w.Decision)
		}
		acc[w.Decision] += p.Alpha * w.Prob
	}
	for _, w := range p.B.Distribution(c) {
		if _, ok := acc[w.Decision]; !ok {
			order = append(order, w.Decision)
		}
		acc[w.Decision] += (1 - p.Alpha) * w.Prob
	}
	out := make([]Weighted[D], 0, len(order))
	for _, d := range order {
		out = append(out, Weighted[D]{Decision: d, Prob: acc[d]})
	}
	return out
}

// FuncPolicy adapts a plain distribution function into a Policy.
type FuncPolicy[C any, D comparable] func(c C) []Weighted[D]

// Distribution implements Policy.
func (f FuncPolicy[C, D]) Distribution(c C) []Weighted[D] { return f(c) }
