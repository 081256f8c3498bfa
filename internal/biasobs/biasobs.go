// Package biasobs is the bias observatory: windowed estimator-health
// diagnostics over a columnar trace. Where core.DiagnoseView answers "can
// this trace support that policy" once, for the whole trace, biasobs
// slices the trace along its time axis into W windows and tracks the
// same bias indicators — effective sample size, importance-weight
// concentration, zero support, context coverage, reward moments,
// propensity calibration — window by window, then runs an online
// change detector (internal/changepoint's CUSUM) over the resulting
// series. The paper's central warning is that trace-driven conclusions
// go stale silently; the observatory is the instrument that makes the
// staling visible while the estimate still looks confident.
//
// Determinism contract: a Report is a pure function of (view, policy,
// Config). Per-window statistics are computed with sequential
// in-window scans (window i's floats never mix with window j's), the
// windows are assembled in index order, and the drift detector is fed
// the series in order — so the result is bit-identical at any worker
// count, matching the repository-wide contract locked down by the
// equivalence suites.
//
// Allocation contract: steady-state cost is O(1) per record. The
// compute pass allocates per window (one context-occurrence counter
// slice) and per report (the series, the calibration counters), never
// per record. The policy's probability rows are a core.Evaluation's
// pooled table, read by context code: the caller's under ComputeEval,
// one of its own under ComputeCtx.
package biasobs

import (
	"context"
	"errors"
	"fmt"
	"math"

	"drnet/internal/changepoint"
	"drnet/internal/core"
	"drnet/internal/mathx"
	"drnet/internal/parallel"
)

// Defaults for Config fields left zero. DefaultClip matches drevald's
// fallback clipped-SNIPS cap so "clipped mass" on /debug/bias measures
// exactly the weight mass the degraded fallback would discard.
const (
	DefaultWindows = 8
	DefaultClip    = 10.0
	DefaultBuckets = 10
)

// Grades order the health verdicts from best to worst. Drift dominates
// overlap trouble: a trace that shifted regimes mid-stream invalidates
// whole-trace estimates even when every window individually overlaps.
const (
	GradeHealthy = "healthy"
	GradeWatch   = "watch"
	GradeDrift   = "drift"
)

// GradeRank maps a grade onto its severity scale (0 healthy, 1 watch,
// 2 drift) — the ordering shared by the drevald_bias_last_grade gauge
// and the SLO engine's drift-free classification. Unknown strings rank
// healthy, matching the gauge's historical behaviour.
func GradeRank(grade string) int {
	switch grade {
	case GradeWatch:
		return 1
	case GradeDrift:
		return 2
	default:
		return 0
	}
}

// Watch thresholds: a window below lowESSRatio or above
// highZeroSupport means the estimate leans on a sliver of the data in
// that stretch of the trace, even if no shift fired.
const (
	lowESSRatio     = 0.1
	highZeroSupport = 0.5
)

// checkEvery is how many records the sequential passes scan between
// context checks (same granularity as core's diagnostic scan).
const checkEvery = 8192

// Config parameterizes a bias-observatory run. The zero value is
// usable: every field defaults as documented.
type Config struct {
	// Windows is the number of equal-width index windows the trace is
	// sliced into (default DefaultWindows, clamped to the trace length
	// so every window holds at least one record).
	Windows int
	// Warmup is how many leading windows calibrate the drift detector's
	// reference regime (default Windows/4, at least 2). Windows inside
	// the warmup are never tested for drift.
	Warmup int
	// Kappa is the CUSUM slack in σ units (default
	// changepoint.DefaultKappa).
	Kappa float64
	// DriftThreshold is the CUSUM decision threshold h in σ units
	// (default changepoint.DefaultThreshold).
	DriftThreshold float64
	// Clip is the importance-weight cap used for the clipped-mass
	// statistic (default DefaultClip).
	Clip float64
	// Buckets is the number of propensity-calibration buckets over
	// (0,1] (default DefaultBuckets).
	Buckets int
	// Workers bounds the worker pool for the per-window pass (0 means
	// the shared pool default). The report is bit-identical at every
	// value.
	Workers int
}

func (c Config) withDefaults(n int) Config {
	if c.Windows <= 0 {
		c.Windows = DefaultWindows
	}
	if c.Windows > n {
		c.Windows = n
	}
	if c.Warmup <= 0 {
		c.Warmup = c.Windows / 4
	}
	if c.Warmup < 2 {
		c.Warmup = 2
	}
	if c.Kappa <= 0 {
		c.Kappa = changepoint.DefaultKappa
	}
	if c.DriftThreshold <= 0 {
		c.DriftThreshold = changepoint.DefaultThreshold
	}
	if c.Clip <= 0 {
		c.Clip = DefaultClip
	}
	if c.Buckets <= 0 {
		c.Buckets = DefaultBuckets
	}
	return c
}

// WindowStats is one window's estimator-health snapshot. Windows
// partition the record index range [Start, End).
type WindowStats struct {
	Index int `json:"index"`
	Start int `json:"start"`
	End   int `json:"end"`
	N     int `json:"n"`
	// ESSRatio is the effective sample size of the window's importance
	// weights divided by the window size — 1 means every record pulls
	// equal weight, near 0 means a handful dominate.
	ESSRatio float64 `json:"essRatio"`
	// MeanWeight should hover near 1 under calibrated propensities.
	MeanWeight float64 `json:"meanWeight"`
	// MaxWeight is the window's largest importance weight.
	MaxWeight float64 `json:"maxWeight"`
	// ClipMassFrac is the fraction of total importance-weight mass
	// carried by weights above Config.Clip — the mass a clipped
	// estimator would distort.
	ClipMassFrac float64 `json:"clipMassFrac"`
	// ZeroSupportFrac is the fraction of records the target policy
	// gives zero probability.
	ZeroSupportFrac float64 `json:"zeroSupportFrac"`
	// CoverageEntropy is the window's context-occurrence entropy
	// normalized to [0,1] by log(total unique contexts); 1 means the
	// window visits the context space uniformly, 0 means it collapsed
	// onto a single context. Defined as 1 when the view has fewer than
	// two contexts.
	CoverageEntropy float64 `json:"coverageEntropy"`
	RewardMean      float64 `json:"rewardMean"`
	RewardVar       float64 `json:"rewardVar"`
	MinPropensity   float64 `json:"minPropensity"`
}

// CalibrationBucket compares logged propensities against the empirical
// conditional frequency of the logged decision given its context, for
// records whose propensity falls in [Lo, Hi). Under calibrated logging
// the two means agree; a large |Gap| says the logged propensities
// misstate how often the logger actually picked those decisions —
// which biases every weight computed from them.
type CalibrationBucket struct {
	Lo             float64 `json:"lo"`
	Hi             float64 `json:"hi"`
	N              int     `json:"n"`
	MeanPropensity float64 `json:"meanPropensity"`
	EmpiricalRate  float64 `json:"empiricalRate"`
	Gap            float64 `json:"gap"`
}

// Alarm is one fired drift detection on a per-window series.
type Alarm struct {
	// Series names the monitored series: "reward_mean" or "ess_ratio".
	Series string `json:"series"`
	// Window is the window index at which the detector fired.
	Window int `json:"window"`
	// Direction is "up" or "down" relative to the warmup baseline.
	Direction string `json:"direction"`
	// Statistic is the CUSUM value at firing, in σ units.
	Statistic float64 `json:"statistic"`
	// Observed is the series value that fired; Baseline the warmup
	// reference mean.
	Observed float64 `json:"observed"`
	Baseline float64 `json:"baseline"`
}

// Series names monitored for drift.
const (
	SeriesRewardMean = "reward_mean"
	SeriesESSRatio   = "ess_ratio"
)

// Report is a full bias-observatory run: the per-window series, the
// whole-trace calibration table, every fired alarm, and the overall
// grade.
type Report struct {
	N            int `json:"n"`
	NumContexts  int `json:"numContexts"`
	NumDecisions int `json:"numDecisions"`
	// Applied configuration (after defaulting), echoed so a consumer
	// can interpret the series without knowing the server's flags.
	WindowCount    int     `json:"windowCount"`
	Warmup         int     `json:"warmup"`
	Kappa          float64 `json:"kappa"`
	DriftThreshold float64 `json:"driftThreshold"`
	Clip           float64 `json:"clip"`

	Windows     []WindowStats       `json:"windows"`
	Calibration []CalibrationBucket `json:"calibration"`
	Alarms      []Alarm             `json:"alarms"`
	Grade       string              `json:"grade"`
}

// HealthSummary is the compact form embedded in /evaluate responses
// and experiment manifests.
type HealthSummary struct {
	Grade              string  `json:"grade"`
	Windows            int     `json:"windows"`
	Alarms             int     `json:"alarms"`
	MinESSRatio        float64 `json:"minEssRatio"`
	MaxZeroSupportFrac float64 `json:"maxZeroSupportFrac"`
	LastRewardMean     float64 `json:"lastRewardMean"`
}

// Summary condenses the report for response blocks and manifests.
func (r *Report) Summary() HealthSummary {
	s := HealthSummary{
		Grade:   r.Grade,
		Windows: len(r.Windows),
		Alarms:  len(r.Alarms),
	}
	for i, w := range r.Windows {
		if i == 0 || w.ESSRatio < s.MinESSRatio {
			s.MinESSRatio = w.ESSRatio
		}
		if w.ZeroSupportFrac > s.MaxZeroSupportFrac {
			s.MaxZeroSupportFrac = w.ZeroSupportFrac
		}
		s.LastRewardMean = w.RewardMean
	}
	return s
}

// Compute runs the observatory over v for newPolicy. See ComputeCtx.
func Compute[C any, D comparable](v *core.TraceView[C, D], newPolicy core.Policy[C, D], cfg Config) (*Report, error) {
	return ComputeCtx(context.Background(), v, newPolicy, cfg)
}

// ComputeCtx runs the observatory over v for newPolicy with
// cooperative cancellation: ctx is checked between windows and every
// few thousand records inside the sequential passes. The report is a
// pure function of (v, newPolicy, cfg) — bit-identical at every
// worker count.
//
// Weight semantics mirror core.DiagnoseViewCtx: when a distribution lists
// the same decision more than once, the last entry wins.
func ComputeCtx[C any, D comparable](ctx context.Context, v *core.TraceView[C, D], newPolicy core.Policy[C, D], cfg Config) (*Report, error) {
	e := core.NewEvaluation(v, newPolicy, nil)
	defer e.Release()
	return ComputeEval(ctx, e, cfg)
}

// ComputeEval is ComputeCtx over an evaluation's view, reading the
// policy's probabilities off the evaluation's table instead of asking
// the policy again; the window pass is then pure array arithmetic. A
// context with an invalid distribution fails the report with DM's
// error.
func ComputeEval[C any, D comparable](ctx context.Context, e *core.Evaluation[C, D], cfg Config) (*Report, error) {
	v := e.View()
	n := v.Len()
	if n == 0 {
		return nil, core.ErrEmptyTrace
	}
	probLast, err := e.Probs()
	if err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults(n)
	numCtx, k := v.NumContexts(), v.NumDecisions()

	windows, err := parallel.TimesCtx(ctx, cfg.Windows, cfg.Workers, func(wi int) (WindowStats, error) {
		lo := wi * n / cfg.Windows
		hi := (wi + 1) * n / cfg.Windows
		return windowStats(v, probLast, k, numCtx, wi, lo, hi, cfg.Clip), nil
	})
	if err != nil {
		return nil, err
	}

	calibration, err := calibrate(ctx, v, k, cfg.Buckets)
	if err != nil {
		return nil, err
	}

	alarms, err := detect(windows, cfg)
	if err != nil {
		return nil, err
	}

	r := &Report{
		N:              n,
		NumContexts:    numCtx,
		NumDecisions:   k,
		WindowCount:    cfg.Windows,
		Warmup:         cfg.Warmup,
		Kappa:          cfg.Kappa,
		DriftThreshold: cfg.DriftThreshold,
		Clip:           cfg.Clip,
		Windows:        windows,
		Calibration:    calibration,
		Alarms:         alarms,
	}
	r.Grade = grade(windows, alarms)
	return r, nil
}

// windowStats scans records [lo, hi) sequentially with O(1)-per-record
// accumulators. The only allocation is the context-occurrence counter
// (one int32 per unique context) — per window, never per record.
//
//lint:hot
func windowStats[C any, D comparable](v *core.TraceView[C, D], probLast []float64, k, numCtx, wi, lo, hi int, clip float64) WindowStats {
	ws := WindowStats{Index: wi, Start: lo, End: hi, N: hi - lo}
	if ws.N == 0 {
		ws.CoverageEntropy = 1
		return ws
	}
	ws.MinPropensity = v.PropensityAt(lo)
	ctxSeen := make([]int32, numCtx)
	var (
		sumW, sumW2, clipMass float64
		zero                  int
		reward                mathx.Welford
	)
	for i := lo; i < hi; i++ {
		p := v.PropensityAt(i)
		w := probLast[v.ContextCode(i)*k+v.DecisionCode(i)] / p
		sumW += w
		sumW2 += w * w
		if w == 0 {
			zero++
		}
		if w > ws.MaxWeight {
			ws.MaxWeight = w
		}
		if w > clip {
			clipMass += w
		}
		if p < ws.MinPropensity {
			ws.MinPropensity = p
		}
		ctxSeen[v.ContextCode(i)]++
		reward.Add(v.RewardAt(i))
	}
	nf := float64(ws.N)
	ws.MeanWeight = sumW / nf
	if sumW2 > 0 {
		ws.ESSRatio = (sumW * sumW) / sumW2 / nf
	}
	if sumW > 0 {
		ws.ClipMassFrac = clipMass / sumW
	}
	ws.ZeroSupportFrac = float64(zero) / nf
	ws.CoverageEntropy = normEntropy(ctxSeen, ws.N, numCtx)
	ws.RewardMean = reward.Mean()
	ws.RewardVar = reward.Variance()
	return ws
}

// normEntropy computes the context-occurrence entropy of one window,
// normalized by log(numCtx) — the entropy of a uniform visit over the
// view's whole context space. Codes are scanned in dictionary order,
// so the float accumulation order is fixed.
func normEntropy(counts []int32, n, numCtx int) float64 {
	if numCtx < 2 {
		return 1
	}
	h := 0.0
	nf := float64(n)
	for _, c := range counts {
		if c == 0 {
			continue
		}
		p := float64(c) / nf
		h -= p * math.Log(p)
	}
	return h / math.Log(float64(numCtx))
}

// calibrate buckets records by logged propensity and compares the mean
// logged propensity per bucket against the empirical conditional
// frequency of the logged decision given its context
// (count(context, decision)/count(context), from the trace itself).
func calibrate[C any, D comparable](ctx context.Context, v *core.TraceView[C, D], k, buckets int) ([]CalibrationBucket, error) {
	n := v.Len()
	numCtx := v.NumContexts()
	cellCount := make([]int32, numCtx*k)
	ctxCount := make([]int32, numCtx)
	for i := 0; i < n; i++ {
		if i%checkEvery == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		cellCount[v.ContextCode(i)*k+v.DecisionCode(i)]++
		ctxCount[v.ContextCode(i)]++
	}
	type acc struct {
		n            int
		sumP, sumEmp float64
	}
	bs := make([]acc, buckets)
	for i := 0; i < n; i++ {
		if i%checkEvery == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		p := v.PropensityAt(i)
		b := int(p * float64(buckets))
		if b >= buckets { // p == 1 lands in the top bucket
			b = buckets - 1
		}
		u := v.ContextCode(i)
		bs[b].n++
		bs[b].sumP += p
		bs[b].sumEmp += float64(cellCount[u*k+v.DecisionCode(i)]) / float64(ctxCount[u])
	}
	out := make([]CalibrationBucket, 0, buckets)
	width := 1 / float64(buckets)
	for b, a := range bs {
		cb := CalibrationBucket{Lo: float64(b) * width, Hi: float64(b+1) * width, N: a.n}
		if a.n > 0 {
			cb.MeanPropensity = a.sumP / float64(a.n)
			cb.EmpiricalRate = a.sumEmp / float64(a.n)
			cb.Gap = cb.EmpiricalRate - cb.MeanPropensity
		}
		out = append(out, cb)
	}
	return out, nil
}

// detect runs the CUSUM over the reward-mean and ESS-ratio series and
// merges the firings in (window, series) order.
func detect(windows []WindowStats, cfg Config) ([]Alarm, error) {
	rewardMeans := make([]float64, len(windows))
	essRatios := make([]float64, len(windows))
	for i, w := range windows {
		rewardMeans[i] = w.RewardMean
		essRatios[i] = w.ESSRatio
	}
	var alarms []Alarm
	for _, series := range []struct {
		name string
		xs   []float64
	}{
		{SeriesESSRatio, essRatios},
		{SeriesRewardMean, rewardMeans},
	} {
		if len(series.xs) <= cfg.Warmup {
			continue
		}
		shifts, err := changepoint.DetectShifts(series.xs, cfg.Warmup, cfg.Kappa, cfg.DriftThreshold)
		if err != nil {
			return nil, fmt.Errorf("biasobs: drift detection on %s: %w", series.name, err)
		}
		for _, s := range shifts {
			alarms = append(alarms, Alarm{
				Series:    series.name,
				Window:    s.Index,
				Direction: s.Direction.String(),
				Statistic: s.Statistic,
				Observed:  s.Observed,
				Baseline:  s.Baseline,
			})
		}
	}
	// Merge the two series' firings into window order (stable insertion
	// sort: the lists are tiny and already sorted within a series).
	for i := 1; i < len(alarms); i++ {
		for j := i; j > 0 && less(alarms[j], alarms[j-1]); j-- {
			alarms[j], alarms[j-1] = alarms[j-1], alarms[j]
		}
	}
	return alarms, nil
}

func less(a, b Alarm) bool {
	if a.Window != b.Window {
		return a.Window < b.Window
	}
	return a.Series < b.Series
}

// grade assigns the overall health verdict: drift beats watch beats
// healthy.
func grade(windows []WindowStats, alarms []Alarm) string {
	if len(alarms) > 0 {
		return GradeDrift
	}
	for _, w := range windows {
		if w.ESSRatio < lowESSRatio || w.ZeroSupportFrac > highZeroSupport {
			return GradeWatch
		}
	}
	return GradeHealthy
}

// Render writes the report as an operator-readable text table (the
// dreval -windows output).
func (r *Report) Render() string {
	var b []byte
	b = fmt.Appendf(b, "bias observatory: n=%d contexts=%d decisions=%d windows=%d warmup=%d grade=%s\n",
		r.N, r.NumContexts, r.NumDecisions, r.WindowCount, r.Warmup, r.Grade)
	b = fmt.Appendf(b, "win  range            n      ess%%  w̄      wmax    clip%%  zero%%  cover  reward µ±σ\n")
	for _, w := range r.Windows {
		b = fmt.Appendf(b, "%-4d [%6d,%6d) %-6d %5.1f  %-6.3f %-7.2f %5.1f  %5.1f  %5.3f  %.4f±%.4f\n",
			w.Index, w.Start, w.End, w.N, 100*w.ESSRatio, w.MeanWeight, w.MaxWeight,
			100*w.ClipMassFrac, 100*w.ZeroSupportFrac, w.CoverageEntropy,
			w.RewardMean, math.Sqrt(w.RewardVar))
	}
	if len(r.Alarms) == 0 {
		b = fmt.Appendf(b, "drift: none (κ=%.2f h=%.1f)\n", r.Kappa, r.DriftThreshold)
	}
	for _, a := range r.Alarms {
		b = fmt.Appendf(b, "drift: %s %s at window %d (stat %.1fσ, observed %.4f vs baseline %.4f)\n",
			a.Series, a.Direction, a.Window, a.Statistic, a.Observed, a.Baseline)
	}
	b = fmt.Appendf(b, "propensity calibration (logged vs empirical):\n")
	for _, c := range r.Calibration {
		if c.N == 0 {
			continue
		}
		b = fmt.Appendf(b, "  [%.2f,%.2f) n=%-6d logged=%.3f empirical=%.3f gap=%+.3f\n",
			c.Lo, c.Hi, c.N, c.MeanPropensity, c.EmpiricalRate, c.Gap)
	}
	return string(b)
}

// ErrNoView is returned by serving layers when no trace has been
// observed yet (drevald computes reports per-request).
var ErrNoView = errors.New("biasobs: no trace observed yet")
