package core

import (
	"context"
	"fmt"
	"math/bits"
	randv2 "math/rand/v2"
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

// drRecord is one record as a bootstrap resample reads it: its
// (context, decision) cell and context codes, its reward, and its
// importance weight µ(d|c)/p after the clip. A cell code fits an
// int32 because the tables hold a float64 per cell.
type drRecord struct {
	reward, w float64
	cell, ctx int32
}

// drRecords packs v's records once per bootstrap; each weight takes
// the division and clip of the fold's DR term.
func drRecords[C any, D comparable](v *TraceView[C, D], t *tables, opts DROptions) []drRecord {
	recs := make([]drRecord, v.Len())
	for i := range recs {
		u := v.ctxCodes[i]
		cell := int(u)*t.k + int(v.decCodes[i])
		w := t.probFirst[cell] / v.propensities[i]
		if opts.Clip > 0 && w > opts.Clip {
			w = opts.Clip
		}
		recs[i] = drRecord{reward: v.rewards[i], w: w, cell: int32(cell), ctx: u}
	}
	return recs
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
// resample starts and ctx's error is returned.
func BootstrapDRViewSeededStatsCtx[C any, D comparable](ctx context.Context, v *TraceView[C, D], newPolicy Policy[C, D], opts DROptions, seed int64, b int, level float64) (Interval, BootstrapStats, error) {
	e := NewEvaluation(v, newPolicy, nil)
	defer e.Release()
	return e.BootstrapDR(ctx, opts, seed, b, level)
}

// BootstrapDR is BootstrapDRViewSeededStatsCtx over tb's view and
// policy. It packs the records once off tb's table; each resample then
// touches only pooled arrays.
func (tb *Evaluation[C, D]) BootstrapDR(ctx context.Context, opts DROptions, seed int64, b int, level float64) (Interval, BootstrapStats, error) {
	v := tb.v
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
	recs := drRecords(v, tb.tables, opts)
	drawer := newIndexDrawer(n)
	sh := parallel.NewShardedRNG(seed)
	type draw struct {
		value float64
		err   error
	}
	draws, err := parallel.TimesCtx(ctx, b, 0, func(i int) (draw, error) {
		rs := resamplePool.Get().(*resample)
		defer resamplePool.Put(rs)
		value, err := refitDR(rs, sh.PCG(i), drawer, recs, tb.tables, v.ctxCodes, opts.SelfNormalize)
		return draw{value, err}, nil
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

// refitDR is one resample of the refit-DR bootstrap. A single pass
// draws the n record indices off pcg and, in draw order, sums each
// cell's rewards and count, the total and (for SN-DR) the weights;
// the refit model then follows from those sums as FitTable's does —
// each cell's mean reward, the resample's mean for unseen cells — and
// DR is evaluated with it over the same draws. Every sum runs in draw
// order, so the value is the textbook refit-DR's bit for bit.
//
//lint:hot
func refitDR(rs *resample, pcg *randv2.PCG, draw indexDrawer, recs []drRecord, t *tables, ctxCodes []int32, selfNormalize bool) (float64, error) {
	cells := t.numCtx * t.k
	rs.idx, rs.means, rs.counts, rs.dm = resize(rs.idx, len(recs)), resize(rs.means, cells), resize(rs.counts, cells), resize(rs.dm, t.numCtx)
	idx, means, counts := rs.idx, rs.means, rs.counts
	clear(means)
	clear(counts)
	total, sumW := 0.0, 0.0
	for j := range idx {
		id := draw.next(pcg)
		idx[j] = id
		r := &recs[id]
		means[r.cell] += r.reward
		counts[r.cell]++
		total += r.reward
		if selfNormalize {
			sumW += r.w
		}
	}
	if err := t.invalidIn(ctxCodes, idx); err != nil {
		return 0, err
	}
	nf := float64(len(idx))
	def := total / nf
	for c, cnt := range counts {
		if cnt > 0 {
			means[c] /= float64(cnt)
		} else {
			means[c] = def
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
				s += p * means[row+int(c)]
			} else {
				s += p * def
			}
		}
		rs.dm[u] = s
	}
	return drMean(recs, idx, rs.dm, means, drScale(selfNormalize, nf, sumW)), nil
}

// drScale is the factor on DR's correction term: n/Σw for SN-DR with a
// positive weight sum, 1 otherwise.
func drScale(selfNormalize bool, nf, sumW float64) float64 {
	if selfNormalize && sumW > 0 {
		return nf / sumW
	}
	return 1
}

// drMean is the DR point value over the record multiset idx, given
// each context's DM value and each cell's prediction, summed in idx
// order. A bootstrap needs nothing else from a resample, so this loop
// skips the fold's variance sums.
func drMean(recs []drRecord, idx []int, dm, pred []float64, scale float64) float64 {
	s := 0.0
	for _, id := range idx {
		r := &recs[id]
		s += dm[r.ctx] + scale*r.w*(r.reward-pred[r.cell])
	}
	return s / float64(len(idx))
}

// indexDrawer draws indices uniform on [0, n) straight off a PCG
// stream, yielding exactly the sequence (*mathx.RNG).Intn(n) does on
// the same stream: math/rand's Int31n (the top 31 bits of each value)
// for n < 2³¹ and its Int63n (the top 63) above, with the same
// rejection threshold. A power of two, which those mask instead,
// never rejects and leaves the same remainder. The 31-bit remainder
// is Lemire, Kaser & Kurz's fastmod ("Faster Remainder by Direct
// Computation", 2019), exact for 32-bit operands: the high word of
// (m·v mod 2⁶⁴)·n with m = ⌈2⁶⁴/n⌉. m overflows to 0 for n = 1, and
// is 0 for the 63-bit path, which both take a plain remainder.
type indexDrawer struct {
	n, max, m uint64
	shift     uint
}

func newIndexDrawer(n int) indexDrawer {
	un := uint64(n)
	if n <= 1<<31-1 {
		return indexDrawer{n: un, max: 1<<31 - 1 - (1<<31)%un, m: ^uint64(0)/un + 1, shift: 33}
	}
	return indexDrawer{n: un, max: 1<<63 - 1 - (1<<63)%un, shift: 1}
}

// next draws one index off p.
func (d indexDrawer) next(p *randv2.PCG) int {
	v := p.Uint64() >> d.shift
	for v > d.max {
		v = p.Uint64() >> d.shift
	}
	if d.m == 0 {
		return int(v % d.n)
	}
	hi, _ := bits.Mul64(d.m*v, d.n)
	return int(hi)
}

// percentiles is the percentile interval of bootstrap values.
func percentiles(values []float64, level float64) Interval {
	alpha := (1 - level) / 2
	return Interval{Lo: mathx.Quantile(values, alpha), Hi: mathx.Quantile(values, 1-alpha), Level: level}
}
