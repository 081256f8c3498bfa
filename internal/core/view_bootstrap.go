package core

import (
	"context"
	"fmt"
	"sync"

	"drnet/internal/mathx"
	"drnet/internal/parallel"
)

// Interval is a two-sided confidence interval.
type Interval struct {
	Lo, Hi float64
	Level  float64
}

// BootstrapStats reports bookkeeping from a seeded bootstrap run, so
// callers can tell a fragile interval (many failed resamples) from a
// solid one and export the distinction as a metric.
type BootstrapStats struct {
	// Resamples is the number of resamples attempted (b after defaulting).
	Resamples int
	// Skipped counts resamples on which the estimator failed; their
	// values do not enter the interval.
	Skipped int
}

// resample is one bootstrap resample's scratch: the drawn record
// indices and the refit model's cells.
type resample struct {
	idx    []int
	means  []float64
	counts []int32
	dm     []float64
}

var resamplePool = sync.Pool{New: func() any { return new(resample) }}

// BootstrapDRViewSeeded computes a percentile bootstrap interval for
// the refit doubly robust estimator, the one drevald's /evaluate
// serves: each resample draws n records with replacement, refits the
// per-(context, decision) mean-reward model on them, and evaluates DR
// with it. Resample i draws from parallel.ShardedRNG shard i and the
// resamples run on the shared worker pool, so the interval is a pure
// function of (v, policy, opts, seed, b, level) at every worker count.
// b <= 0 selects 200 resamples. Resamples on which DR fails (a drawn
// context with an invalid distribution) are skipped; if all fail, the
// error of the last one is returned.
func BootstrapDRViewSeeded[C any, D comparable](v *TraceView[C, D], newPolicy Policy[C, D], opts DROptions, seed int64, b int, level float64) (Interval, error) {
	iv, _, err := BootstrapDRViewSeededStatsCtx(context.Background(), v, newPolicy, opts, seed, b, level)
	return iv, err
}

// BootstrapDRViewSeededStatsCtx is BootstrapDRViewSeeded plus resample
// bookkeeping and cooperative cancellation: once ctx ends no new
// resample starts and ctx's error is returned. The policy is flattened
// once; each resample then touches only pooled arrays.
func BootstrapDRViewSeededStatsCtx[C any, D comparable](ctx context.Context, v *TraceView[C, D], newPolicy Policy[C, D], opts DROptions, seed int64, b int, level float64) (Interval, BootstrapStats, error) {
	n := v.Len()
	if n == 0 {
		return Interval{}, BootstrapStats{}, ErrEmptyTrace
	}
	if b <= 0 {
		b = 200
	}
	if level <= 0 || level >= 1 {
		return Interval{}, BootstrapStats{}, fmt.Errorf("core: confidence level %g out of (0,1)", level)
	}
	tb := newTable(v, newPolicy, nil)
	defer tb.release()
	sh := parallel.NewShardedRNG(seed)
	type draw struct {
		value float64
		err   error
	}
	draws, err := parallel.TimesCtx(ctx, b, 0, func(i int) (draw, error) {
		rng := sh.Shard(i)
		rs := resamplePool.Get().(*resample)
		defer resamplePool.Put(rs)
		idx := resize(rs.idx, n)
		for j := range idx {
			idx[j] = rng.Intn(n)
		}
		rs.idx = idx
		if err := tb.invalidIn(v.ctxCodes, idx); err != nil {
			return draw{err: err}, nil
		}
		refit(rs, v, tb.tables)
		return draw{value: drValue(v, tb.tables, idx, opts, rs.dm, rs.means)}, nil
	})
	if err != nil {
		return Interval{}, BootstrapStats{}, err
	}
	stats := BootstrapStats{Resamples: b}
	values := make([]float64, 0, b)
	var lastErr error
	for _, d := range draws {
		if d.err != nil {
			lastErr = d.err
			stats.Skipped++
			continue
		}
		values = append(values, d.value)
	}
	if len(values) == 0 {
		return Interval{}, stats, fmt.Errorf("core: all bootstrap resamples failed: %w", lastErr)
	}
	return percentiles(values, level), stats, nil
}

// refit fits the per-(context, decision) mean-reward model on the
// resample — in record order, as FitTable does — leaving each cell's
// prediction in means (the resample's mean reward for unseen cells) and
// each context's DM value in dm.
func refit[C any, D comparable](rs *resample, v *TraceView[C, D], t *tables) {
	cells := t.numCtx * t.k
	rs.means, rs.counts, rs.dm = resize(rs.means, cells), resize(rs.counts, cells), resize(rs.dm, t.numCtx)
	clear(rs.means)
	clear(rs.counts)
	total := 0.0
	for _, id := range rs.idx {
		cell := int(v.ctxCodes[id])*t.k + int(v.decCodes[id])
		rs.means[cell] += v.rewards[id]
		rs.counts[cell]++
		total += v.rewards[id]
	}
	def := total / float64(len(rs.idx))
	for c, cnt := range rs.counts {
		if cnt > 0 {
			rs.means[c] /= float64(cnt)
		} else {
			rs.means[c] = def
		}
	}
	for u := 0; u < t.numCtx; u++ {
		row, s := u*t.k, 0.0
		for j := t.off[u]; j < t.off[u+1]; j++ {
			p := t.entProb[j]
			if p == 0 {
				continue
			}
			if c := t.entCode[j]; c >= 0 {
				s += p * rs.means[row+int(c)]
			} else {
				s += p * def
			}
		}
		rs.dm[u] = s
	}
}

// drValue is the DR point value over the record multiset idx, given
// each context's DM value and each cell's prediction, summed in idx
// order. A bootstrap needs nothing else from a resample, so this loop
// skips the fold's variance sums.
func drValue[C any, D comparable](v *TraceView[C, D], t *tables, idx []int, opts DROptions, dm, pred []float64) float64 {
	nf := float64(len(idx))
	scale := 1.0
	if opts.SelfNormalize {
		sumW := 0.0
		for _, id := range idx {
			w := t.probFirst[int(v.ctxCodes[id])*t.k+int(v.decCodes[id])] / v.propensities[id]
			if opts.Clip > 0 && w > opts.Clip {
				w = opts.Clip
			}
			sumW += w
		}
		if sumW > 0 {
			scale = nf / sumW
		}
	}
	s := 0.0
	for _, id := range idx {
		u := int(v.ctxCodes[id])
		cell := u*t.k + int(v.decCodes[id])
		w := t.probFirst[cell] / v.propensities[id]
		if opts.Clip > 0 && w > opts.Clip {
			w = opts.Clip
		}
		s += dm[u] + scale*w*(v.rewards[id]-pred[cell])
	}
	return s / nf
}

// percentiles is the percentile interval of bootstrap values.
func percentiles(values []float64, level float64) Interval {
	alpha := (1 - level) / 2
	return Interval{Lo: mathx.Quantile(values, alpha), Hi: mathx.Quantile(values, 1-alpha), Level: level}
}
