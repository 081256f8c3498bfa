package core

import (
	"context"
	"fmt"
	"math"
)

// This file is the one implementation of DM, IPS, SNIPS, DR, SN-DR,
// matched rewards and Diagnose. Each is a mean of per-record terms
// (Dudík, Langford & Li write DR this way), so all of them are one fold
// of a record sequence into running sums, read out at the end:
//
//   - the batch *View calls fold every record of a view;
//   - StreamEval folds each new batch into the same state, so a stream
//     equals the batch over the same prefix bit for bit;
//   - CrossFitDRView folds each fold's index list.
//
// The fold reads one per-context table (view_tables.go) and touches no
// other per-record memory. Values are in-order sums. Standard errors
// come from sums of squares around a fixed shift — the first term —
// which a stream knows as early as a batch does; see DESIGN.md for the
// measured accuracy.

// estimatorGrain is how many records a fold scans between context
// checks.
const estimatorGrain = 2048

// Estimate is the result of an off-policy estimator: a point estimate of
// the expected per-client reward of the new policy, plus plug-in
// uncertainty and weight diagnostics.
type Estimate struct {
	// Value is the estimated expected reward V̂(µ_new).
	Value float64
	// StdErr is the plug-in standard error: the sample standard
	// deviation of per-record contributions divided by √n.
	StdErr float64
	// N is the number of trace records used.
	N int
	// ESS is Kish's effective sample size of the importance weights
	// (equals N for DM, which uses no weights).
	ESS float64
	// MaxWeight is the largest importance weight encountered (zero for
	// DM). Large values flag poor overlap between old and new policy.
	MaxWeight float64
}

// String renders the estimate compactly.
func (e Estimate) String() string {
	return fmt.Sprintf("%.4f ± %.4f (n=%d, ess=%.1f)", e.Value, e.StdErr, e.N, e.ESS)
}

// IPSOptions tunes the inverse-propensity-score estimator.
type IPSOptions struct {
	// Clip, when positive, caps each importance weight at this value
	// (truncated IPS). Clipping trades bias for variance, which matters
	// exactly in the paper's low-randomness regime (§4.1).
	Clip float64
	// SelfNormalize divides by the sum of weights instead of n (the
	// SNIPS estimator), removing sensitivity to the weight scale at the
	// cost of O(1/n) bias.
	SelfNormalize bool
}

// DROptions tunes the doubly robust estimator.
type DROptions struct {
	// Clip, when positive, caps importance weights as in IPSOptions.
	Clip float64
	// SelfNormalize normalizes the correction term by the sum of
	// weights (the SNDR / weighted DR estimator).
	SelfNormalize bool
}

// Diagnostics summarizes how well a trace supports evaluating a target
// policy — the paper's "coverage and randomness" concern (§4.1) made
// quantitative. Compute it before trusting any IPS/DR estimate.
type Diagnostics struct {
	// N is the trace length.
	N int
	// ESS is the effective sample size of the importance weights.
	// ESS ≪ N means a few records dominate the estimate.
	ESS float64
	// MatchRate is the fraction of records whose logged decision is the
	// modal decision of the new policy — the coverage available to
	// matching (CFA-style) evaluators.
	MatchRate float64
	// MeanWeight is the average importance weight; it should be close
	// to 1 when propensities are calibrated.
	MeanWeight float64
	// MaxWeight is the largest importance weight.
	MaxWeight float64
	// ZeroSupport counts records where the new policy puts zero
	// probability on the logged decision (they contribute nothing to
	// IPS/DR corrections).
	ZeroSupport int
	// MinPropensity is the smallest logged propensity.
	MinPropensity float64
}

// String renders the diagnostics for operator consumption.
func (d Diagnostics) String() string {
	return fmt.Sprintf(
		"n=%d ess=%.1f match=%.1f%% w̄=%.3f wmax=%.1f zero-support=%d min-propensity=%.4f",
		d.N, d.ESS, 100*d.MatchRate, d.MeanWeight, d.MaxWeight, d.ZeroSupport, d.MinPropensity)
}

// ErrNoMatches is returned by MatchedRewardsView when the new policy
// agrees with the logged decision on zero records.
var ErrNoMatches = fmt.Errorf("core: no records match the new policy's decisions")

// What a fold accumulates. Batch calls fold only the family they
// answer; a StreamEval folds all of them.
const (
	foldDM    uint8 = 1 << iota // per-context DM value (needs a model)
	foldW                       // clipped first-match weights: ESS, max weight
	foldIPS                     // IPS and SNIPS terms; set with foldW
	foldDR                      // correction w·(r − r̂); set with foldDM|foldW
	foldDiag                    // Diagnose: unclipped last-match weights
	foldMatch                   // matched rewards
	foldAll   = foldDM | foldW | foldIPS | foldDR | foldDiag | foldMatch
)

// spread holds Σ(x−k) and Σ(x−k)² around a fixed shift k, the first
// term added. Summing squares around a shift near the data keeps the
// variance from cancelling when the terms sit far from zero; sums that
// share a shift merge by addition (Chan, Golub & LeVeque).
type spread struct{ k, d, dd float64 }

func (s *spread) add(x float64, first bool) {
	if first {
		s.k = x
	}
	d := x - s.k
	s.d += d
	s.dd += d * d
}

func (s *spread) stdErr(n int) float64 { return stdErrOf(n, s.d, s.dd) }

// stdErrOf is the plug-in standard error of the mean of n terms whose
// shifted sum and sum of squares are s1 and s2.
func stdErrOf(n int, s1, s2 float64) float64 {
	if n < 2 {
		return 0
	}
	nf := float64(n)
	v := (s2 - s1*s1/nf) / (nf - 1)
	if v < 0 {
		v = 0 // rounding; a NaN term still yields NaN
	}
	return math.Sqrt(v) / math.Sqrt(nf)
}

// ess is Kish's effective sample size (Σw)²/Σw², 0 when Σw² is 0.
func ess(sum, sumSq float64) float64 {
	if sumSq == 0 {
		return 0
	}
	return sum * sum / sumSq
}

// acc is the fold state. The zero value plus want (and clip) is an
// empty fold.
type acc struct {
	want uint8
	clip float64
	n    int

	sumDM float64 // Σ dm
	dm    spread

	sumW, sumW2, maxW float64 // clipped first-match weights
	sumWR             float64 // Σ w·r
	wr                spread
	// SNIPS influence terms around the first reward kr: a = w·(r − kr).
	kr, sa, saa, saw float64 // kr, Σa, Σa², Σa·w

	sumDR, sumE float64 // Σ (dm + e), Σ e with e = w·(r − r̂)
	e           spread
	sxy         float64 // Σ (dm − dm₀)(e − e₀)

	dSumW, dSumW2, dMaxW float64 // unclipped last-match weights
	zero, matches        int
	minProp              float64

	mN   int // matched rewards
	mSum float64
	m    spread
}

// foldView folds records [lo, hi) of v into a — or, when idx is
// non-nil, the records idx[lo:hi]. ctx is checked every estimatorGrain
// records. The loop works on local copies of the state and the columns,
// which the compiler need not reload after every store, and writes the
// state back once.
//
//lint:hot
func foldView[C any, D comparable](ctx context.Context, a *acc, t *tables, v *TraceView[C, D], lo, hi int, idx []int) error {
	ctxCodes, decCodes, rewards, props := v.ctxCodes, v.decCodes, v.rewards, v.propensities
	k, dmTab, probFirst, probLast, pred, argmax := t.k, t.dm, t.probFirst, t.probLast, t.pred, t.argmax
	s := *a
	for j := lo; j < hi; j++ {
		if j%estimatorGrain == 0 {
			if err := ctx.Err(); err != nil {
				*a = s
				return err
			}
		}
		i := j
		if idx != nil {
			i = idx[j]
		}
		u, kc := int(ctxCodes[i]), int(decCodes[i])
		cell := u*k + kc
		r, p := rewards[i], props[i]
		first := s.n == 0
		s.n++
		var dm, w float64
		if s.want&foldDM != 0 {
			dm = dmTab[u]
			s.sumDM += dm
			s.dm.add(dm, first)
		}
		if s.want&foldW != 0 {
			w = probFirst[cell] / p
			if s.clip > 0 && w > s.clip {
				w = s.clip
			}
			s.sumW += w
			s.sumW2 += w * w
			if w > s.maxW {
				s.maxW = w
			}
		}
		if s.want&foldIPS != 0 {
			wr := w * r
			s.sumWR += wr
			s.wr.add(wr, first)
			if first {
				s.kr = r
			}
			x := w * (r - s.kr)
			s.sa += x
			s.saa += x * x
			s.saw += x * w
		}
		if s.want&foldDR != 0 {
			e := w * (r - pred[cell])
			s.sumE += e
			s.sumDR += dm + e
			s.e.add(e, first)
			s.sxy += (dm - s.dm.k) * (e - s.e.k)
		}
		if s.want&foldDiag != 0 {
			dw := probLast[cell] / p
			s.dSumW += dw
			s.dSumW2 += dw * dw
			if dw == 0 {
				s.zero++
			}
			if dw > s.dMaxW {
				s.dMaxW = dw
			}
			if argmax[u] == int32(kc) {
				s.matches++
			}
			if first || p < s.minProp {
				s.minProp = p
			}
		}
		if s.want&foldMatch != 0 && argmax[u] == int32(kc) {
			s.mSum += r
			s.m.add(r, s.mN == 0)
			s.mN++
		}
	}
	*a = s
	return nil
}

func (a *acc) dmEstimate() Estimate {
	nf := float64(a.n)
	return Estimate{Value: a.sumDM / nf, StdErr: a.dm.stdErr(a.n), N: a.n, ESS: nf}
}

func (a *acc) ipsEstimate(selfNormalize bool) Estimate {
	nf := float64(a.n)
	est := Estimate{N: a.n, ESS: ess(a.sumW, a.sumW2), MaxWeight: a.maxW}
	if !selfNormalize {
		est.Value = a.sumWR / nf
		est.StdErr = a.wr.stdErr(a.n)
		return est
	}
	if a.sumW != 0 {
		est.Value = a.sumWR / a.sumW
	}
	// Influence function of SNIPS, w·(r − V)/w̄, from the sums around kr:
	// w·(r − V) = a − δ·w with δ = V − kr.
	if wbar := a.sumW / nf; wbar > 0 {
		delta := est.Value - a.kr
		s1 := (a.sa - delta*a.sumW) / wbar
		s2 := (a.saa - 2*delta*a.saw + delta*delta*a.sumW2) / (wbar * wbar)
		est.StdErr = stdErrOf(a.n, s1, s2)
	}
	return est
}

// drEstimate reads DR, or SN-DR whose terms are dm + c·e with
// c = n/Σw: its variance expands into the dm and e sums.
func (a *acc) drEstimate(selfNormalize bool) Estimate {
	nf := float64(a.n)
	est := Estimate{Value: a.sumDR / nf, N: a.n, ESS: ess(a.sumW, a.sumW2), MaxWeight: a.maxW}
	c := 1.0
	if selfNormalize {
		if a.sumW > 0 {
			c = nf / a.sumW
		}
		est.Value = (a.sumDM + c*a.sumE) / nf
	}
	est.StdErr = stdErrOf(a.n, a.dm.d+c*a.e.d, a.dm.dd+2*c*a.sxy+c*c*a.e.dd)
	return est
}

func (a *acc) matchedEstimate() (Estimate, error) {
	if a.mN == 0 {
		return Estimate{}, ErrNoMatches
	}
	nf := float64(a.mN)
	return Estimate{Value: a.mSum / nf, StdErr: a.m.stdErr(a.mN), N: a.mN, ESS: nf}, nil
}

func (a *acc) diagnostics() Diagnostics {
	nf := float64(a.n)
	return Diagnostics{
		N:             a.n,
		ESS:           ess(a.dSumW, a.dSumW2),
		MatchRate:     float64(a.matches) / nf,
		MeanWeight:    a.dSumW / nf,
		MaxWeight:     a.dMaxW,
		ZeroSupport:   a.zero,
		MinPropensity: a.minProp,
	}
}
