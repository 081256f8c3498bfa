package core

import (
	"errors"
	"fmt"
	"sort"

	"drnet/internal/mathx"
)

// Candidate is a named policy submitted to SelectBest.
type Candidate[C any, D comparable] struct {
	Name   string
	Policy Policy[C, D]
}

// Ranked is one row of a policy-selection result.
type Ranked[C any, D comparable] struct {
	Candidate Candidate[C, D]
	// Estimate is the candidate's off-policy estimate.
	Estimate Estimate
	// Interval is the bootstrap confidence interval of the estimate.
	Interval Interval
	// Diagnostics describes the trace's support for this candidate.
	Diagnostics Diagnostics
}

// SelectOptions configures SelectBest.
type SelectOptions struct {
	// DR options applied to every candidate.
	DR DROptions
	// Bootstrap resamples per candidate (default 200).
	Bootstrap int
	// Level is the confidence level (default 0.95).
	Level float64
	// MinESS rejects candidates whose effective sample size is below
	// this threshold (default 10): their estimates rest on too few
	// effective records to be trusted, which is exactly the Figure 5
	// failure mode.
	MinESS float64
}

// SelectBest is the end-to-end workflow of the paper's Figure 1: given
// a logged trace, a reward model and a set of candidate policies, it
// estimates each candidate's value with DR, attaches bootstrap
// intervals and overlap diagnostics, filters out candidates the trace
// cannot support, and returns the survivors sorted by estimated value
// (best first). Each interval resamples the records with replacement,
// drawing indices from rng, and keeps the model fixed.
//
// It returns ErrNoSupportedCandidates when the trace supports none of
// the candidates — the correct answer when an operator asks a trace a
// question it cannot answer.
func SelectBest[C any, D comparable](v *TraceView[C, D], model RewardModel[C, D], candidates []Candidate[C, D], rng *mathx.RNG, opts SelectOptions) ([]Ranked[C, D], error) {
	if v.Len() == 0 {
		return nil, ErrEmptyTrace
	}
	if len(candidates) == 0 {
		return nil, errors.New("core: no candidate policies")
	}
	if opts.Bootstrap <= 0 {
		opts.Bootstrap = 200
	}
	if opts.Level <= 0 || opts.Level >= 1 {
		opts.Level = 0.95
	}
	if opts.MinESS <= 0 {
		opts.MinESS = 10
	}
	var out []Ranked[C, D]
	for _, cand := range candidates {
		diag, err := DiagnoseView(v, cand.Policy)
		if err != nil {
			return nil, fmt.Errorf("core: candidate %q: %w", cand.Name, err)
		}
		est, err := DoublyRobustView(v, cand.Policy, model, opts.DR)
		if err != nil {
			return nil, fmt.Errorf("core: candidate %q: %w", cand.Name, err)
		}
		if est.ESS < opts.MinESS {
			continue // unsupported by this trace
		}
		out = append(out, Ranked[C, D]{
			Candidate:   cand,
			Estimate:    est,
			Interval:    bootstrapDR(v, cand.Policy, model, rng, opts),
			Diagnostics: diag,
		})
	}
	if len(out) == 0 {
		return nil, ErrNoSupportedCandidates
	}
	sort.SliceStable(out, func(i, j int) bool {
		return out[i].Estimate.Value > out[j].Estimate.Value
	})
	return out, nil
}

// bootstrapDR is SelectBest's percentile interval: opts.Bootstrap
// resamples of DR with the fixed model, each drawing n record indices
// from rng in turn. DoublyRobustView has already accepted every
// context's distribution, so no resample can fail.
func bootstrapDR[C any, D comparable](v *TraceView[C, D], policy Policy[C, D], model RewardModel[C, D], rng *mathx.RNG, opts SelectOptions) Interval {
	tb := newTable(v, policy, model)
	defer tb.release()
	idx := make([]int, v.Len())
	values := make([]float64, opts.Bootstrap)
	for i := range values {
		for j := range idx {
			idx[j] = rng.Intn(len(idx))
		}
		values[i] = drValue(v, tb.tables, idx, opts.DR, tb.dm, tb.pred)
	}
	return percentiles(values, opts.Level)
}

// ErrNoSupportedCandidates is returned by SelectBest when every
// candidate fails the effective-sample-size screen.
var ErrNoSupportedCandidates = errors.New("core: trace supports none of the candidate policies (ESS below threshold)")

// Overlaps reports whether the top candidate's interval overlaps the
// runner-up's — i.e. whether the selection is statistically ambiguous
// and the operator should gather more (or more randomized) data before
// acting.
func Overlaps[C any, D comparable](ranked []Ranked[C, D]) bool {
	if len(ranked) < 2 {
		return false
	}
	best, second := ranked[0].Interval, ranked[1].Interval
	return best.Lo <= second.Hi && second.Lo <= best.Hi
}
