package core

import "context"

// EstimatePropensities estimates µ_old(d|c) from the trace itself by
// empirical frequencies within groups of contexts that share key(c).
// This covers the practical case the paper notes ("in practice, it may
// be necessary to estimate this probability from the trace").
//
// minCount guards against degenerate groups: groups with fewer records
// fall back to the marginal decision frequencies. Estimated propensities
// are floored at floor to keep importance weights finite.
func EstimatePropensities[C any, D comparable](t Trace[C, D], key func(c C) string, minCount int, floor float64) error {
	return EstimatePropensitiesCtx(context.Background(), t, key, minCount, floor)
}

// EstimatePropensitiesCtx is EstimatePropensities with cooperative
// cancellation: ctx is checked once per chunk of records in both the
// counting and the fill pass, so a cancelled ctx stops within one chunk
// boundary and returns ctx's error (the trace may then be partially
// filled).
func EstimatePropensitiesCtx[C any, D comparable](ctx context.Context, t Trace[C, D], key func(c C) string, minCount int, floor float64) error {
	if floor <= 0 {
		floor = 1e-4
	}
	if minCount < 1 {
		minCount = 1
	}
	type group struct {
		total  int
		counts map[D]int
	}
	groups := make(map[string]*group)
	marginal := &group{counts: make(map[D]int)}
	for i, rec := range t {
		if i%estimatorGrain == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		k := key(rec.Context)
		g, ok := groups[k]
		if !ok {
			g = &group{counts: make(map[D]int)}
			groups[k] = g
		}
		g.counts[rec.Decision]++
		g.total++
		marginal.counts[rec.Decision]++
		marginal.total++
	}
	if marginal.total == 0 {
		return ErrEmptyTrace
	}
	for i := range t {
		if i%estimatorGrain == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		g := groups[key(t[i].Context)]
		if g.total < minCount {
			g = marginal
		}
		p := float64(g.counts[t[i].Decision]) / float64(g.total)
		if p < floor {
			p = floor
		}
		if p > 1 {
			p = 1
		}
		t[i].Propensity = p
	}
	return nil
}
