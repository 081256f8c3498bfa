package changepoint

import (
	"errors"
	"fmt"
	"math"
)

// This file extends the offline segmentation algorithms (PELT, binary
// segmentation) with an *online* detector, so the bias observatory can
// watch a per-window diagnostic series — reward means, ESS ratios —
// and raise an alarm at the first window that departs from the
// calibrated regime, instead of segmenting after the fact.
//
// The detector is a two-sided tabular CUSUM (Page 1954): against a
// reference mean μ and scale σ it accumulates standardized exceedances
//
//	S⁺ ← max(0, S⁺ + (x−μ)/σ − κ)    upward shifts
//	S⁻ ← max(0, S⁻ − (x−μ)/σ − κ)    downward shifts
//
// and fires when either statistic crosses the decision threshold h.
// Everything is a pure function of the inputs — no randomness, no
// clocks — so alarms are bit-deterministic and reproducible across
// runs and worker counts.

// Direction labels which side of the CUSUM fired.
type Direction int

const (
	// Up means the series shifted above the reference mean.
	Up Direction = +1
	// Down means the series shifted below the reference mean.
	Down Direction = -1
)

// String renders the direction for reports and JSON.
func (d Direction) String() string {
	if d < 0 {
		return "down"
	}
	return "up"
}

// Cusum is a two-sided online CUSUM detector against a fixed reference
// (mean, scale). Feed observations in order with Update; after a
// firing, the statistics reset so the detector can fire again on a
// later shift. The zero value is unusable — construct with NewCusum.
type Cusum struct {
	mean, scale float64
	kappa, h    float64
	sPos, sNeg  float64
}

// DefaultKappa is the CUSUM slack: shifts smaller than κ·σ accumulate
// nothing and are ignored. 0.75 is deliberately above the classic 0.5
// because the reference here is calibrated from a short warmup whose
// mean error is itself a sizable fraction of σ — a drift monitor wants
// regime changes, not warmup sampling noise.
const DefaultKappa = 0.75

// DefaultThreshold is the decision threshold h in σ units. At h = 5 a
// clean 1.75σ shift fires after ~5 observations and a ≥5.75σ jump
// fires on the very observation it lands, while stationary noise stays
// silent for the short series (tens of windows) this repository
// monitors.
const DefaultThreshold = 5.0

// NewCusum returns a detector calibrated to the reference regime
// (mean, scale). kappa <= 0 and h <= 0 take the defaults. scale must
// be > 0: calibrate on a warmup prefix and floor it (see Calibrate).
func NewCusum(mean, scale, kappa, h float64) (*Cusum, error) {
	if !(scale > 0) || math.IsInf(scale, 0) || math.IsNaN(mean) || math.IsInf(mean, 0) {
		return nil, fmt.Errorf("changepoint: cusum reference mean=%g scale=%g invalid (scale must be finite and > 0)", mean, scale)
	}
	if kappa <= 0 {
		kappa = DefaultKappa
	}
	if h <= 0 {
		h = DefaultThreshold
	}
	return &Cusum{mean: mean, scale: scale, kappa: kappa, h: h}, nil
}

// Update feeds one observation. It returns whether the detector fired,
// the direction of the detected shift, and the firing statistic (in σ
// units; 0 when not fired). A firing resets both one-sided statistics,
// so consecutive alarms are separated by fresh accumulation.
func (c *Cusum) Update(x float64) (fired bool, dir Direction, stat float64) {
	z := (x - c.mean) / c.scale
	c.sPos = math.Max(0, c.sPos+z-c.kappa)
	c.sNeg = math.Max(0, c.sNeg-z-c.kappa)
	// On a simultaneous crossing the larger statistic wins; ties go up
	// (deterministic either way).
	if c.sPos >= c.h && c.sPos >= c.sNeg {
		stat = c.sPos
		c.sPos, c.sNeg = 0, 0
		return true, Up, stat
	}
	if c.sNeg >= c.h {
		stat = c.sNeg
		c.sPos, c.sNeg = 0, 0
		return true, Down, stat
	}
	return false, Up, 0
}

// Reset clears the accumulated statistics, keeping the reference.
func (c *Cusum) Reset() { c.sPos, c.sNeg = 0, 0 }

// Shift is one online-detected change in a series.
type Shift struct {
	// Index is the series position at which the detector fired. The
	// underlying change began at or shortly before this index (CUSUM
	// detection delay shrinks as the shift grows).
	Index int
	// Direction is the sign of the shift relative to the warmup mean.
	Direction Direction
	// Statistic is the CUSUM value at firing, in σ units.
	Statistic float64
	// Observed is the series value that fired the alarm.
	Observed float64
	// Baseline is the warmup reference mean.
	Baseline float64
}

// Calibrate computes the (mean, scale) reference from a warmup prefix.
// The scale is the prefix standard deviation, inflated by a 1 + 2/√n
// small-sample factor (a short warmup underestimates σ roughly this
// often-enough to matter, and an underestimated scale turns the
// detector into a hair trigger), then floored at a small fraction of
// |mean| (and an absolute epsilon) so near-constant warmup series —
// common when windows of a deterministic workload agree to many
// digits — stay usable.
func Calibrate(warmup []float64) (mean, scale float64, err error) {
	if len(warmup) < 2 {
		return 0, 0, errors.New("changepoint: cusum calibration needs at least 2 warmup observations")
	}
	n := float64(len(warmup))
	s := 0.0
	for _, x := range warmup {
		s += x
	}
	mean = s / n
	ss := 0.0
	for _, x := range warmup {
		d := x - mean
		ss += d * d
	}
	scale = math.Sqrt(ss/(n-1)) * (1 + 2/math.Sqrt(n))
	// Floors: 1% of the mean magnitude, and an absolute epsilon for
	// all-zero prefixes.
	if floor := 0.01 * math.Abs(mean); scale < floor {
		scale = floor
	}
	if scale < 1e-12 {
		scale = 1e-12
	}
	if math.IsNaN(scale) || math.IsInf(scale, 0) {
		return 0, 0, fmt.Errorf("changepoint: cusum calibration produced scale %g", scale)
	}
	return mean, scale, nil
}

// DetectShifts runs the two-sided CUSUM over xs: the first warmup
// observations calibrate the reference (and are never tested), the
// rest are fed in order. kappa/h <= 0 take the defaults. It returns
// every firing, in order; an empty result means the series stayed in
// its calibrated regime. Errors only on invalid arguments.
func DetectShifts(xs []float64, warmup int, kappa, h float64) ([]Shift, error) {
	if warmup < 2 {
		return nil, errors.New("changepoint: warmup must be >= 2")
	}
	if len(xs) <= warmup {
		return nil, nil // nothing beyond the calibration prefix
	}
	mean, scale, err := Calibrate(xs[:warmup])
	if err != nil {
		return nil, err
	}
	det, err := NewCusum(mean, scale, kappa, h)
	if err != nil {
		return nil, err
	}
	var shifts []Shift
	for i := warmup; i < len(xs); i++ {
		if fired, dir, stat := det.Update(xs[i]); fired {
			shifts = append(shifts, Shift{
				Index:     i,
				Direction: dir,
				Statistic: stat,
				Observed:  xs[i],
				Baseline:  mean,
			})
		}
	}
	return shifts, nil
}
