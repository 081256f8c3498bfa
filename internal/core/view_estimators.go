package core

import (
	"context"
	"errors"
	"fmt"
	"math"

	"drnet/internal/mathx"
)

// evalView folds every record of v for the estimator families in want.
// A model makes the fold refuse traces whose contexts include an
// invalid distribution, as DM and DR do; IPS, SNIPS, matched rewards
// and Diagnose read only probabilities and never refuse.
func evalView[C any, D comparable](ctx context.Context, v *TraceView[C, D], policy Policy[C, D], model RewardModel[C, D], want uint8, clip float64) (acc, error) {
	if v.Len() == 0 {
		return acc{}, ErrEmptyTrace
	}
	tb := newTable(v, policy, model)
	defer tb.release()
	if model != nil {
		if err := tb.invalidErr(); err != nil {
			return acc{}, err
		}
	}
	a := acc{want: want, clip: clip}
	if err := foldView(ctx, &a, tb.tables, v, 0, v.Len(), nil); err != nil {
		return acc{}, err
	}
	return a, nil
}

// DirectMethodView estimates V(µ_new) with a reward model only (the
// paper's DM): V̂_DM = (1/n) Σ_k Σ_d µ_new(d|c_k) · r̂(c_k, d).
//
// DM has no variance problems — it uses every record and no importance
// weights — but inherits every bias of the reward model (§2.2.1).
func DirectMethodView[C any, D comparable](v *TraceView[C, D], newPolicy Policy[C, D], model RewardModel[C, D]) (Estimate, error) {
	return DirectMethodViewCtx(context.Background(), v, newPolicy, model)
}

// DirectMethodViewCtx is DirectMethodView with cooperative
// cancellation: the fold checks ctx every few thousand records and
// returns its error once it has ended.
func DirectMethodViewCtx[C any, D comparable](ctx context.Context, v *TraceView[C, D], newPolicy Policy[C, D], model RewardModel[C, D]) (Estimate, error) {
	a, err := evalView(ctx, v, newPolicy, model, foldDM, 0)
	if err != nil {
		return Estimate{}, err
	}
	return a.dmEstimate(), nil
}

// IPSView estimates V(µ_new) by importance-weighting observed rewards
// (the paper's model-free estimator):
//
//	V̂_IPS = (1/n) Σ_k [µ_new(d_k|c_k)/µ_old(d_k|c_k)] · r_k.
//
// It is unbiased whenever propensities are correct and positive
// wherever µ_new is, but its variance explodes when the old policy
// rarely takes decisions the new policy favours (§2.2.2).
func IPSView[C any, D comparable](v *TraceView[C, D], newPolicy Policy[C, D], opts IPSOptions) (Estimate, error) {
	return IPSViewCtx(context.Background(), v, newPolicy, opts)
}

// IPSViewCtx is IPSView with cooperative cancellation.
func IPSViewCtx[C any, D comparable](ctx context.Context, v *TraceView[C, D], newPolicy Policy[C, D], opts IPSOptions) (Estimate, error) {
	a, err := evalView(ctx, v, newPolicy, nil, foldW|foldIPS, opts.Clip)
	if err != nil {
		return Estimate{}, err
	}
	return a.ipsEstimate(opts.SelfNormalize), nil
}

// DoublyRobustView estimates V(µ_new) by combining the reward model
// with an importance-weighted correction using observed rewards (the
// paper's Eq. 2):
//
//	V̂_DR = (1/n) Σ_k [ Σ_d µ_new(d|c_k) r̂(c_k,d)
//	                   + w_k · (r_k − r̂(c_k,d_k)) ],
//	w_k = µ_new(d_k|c_k)/µ_old(d_k|c_k).
//
// DR is accurate when either the reward model or the propensities are
// accurate ("double robustness"), and its error is bounded by roughly
// the product of the two ingredient errors ("second-order bias").
func DoublyRobustView[C any, D comparable](v *TraceView[C, D], newPolicy Policy[C, D], model RewardModel[C, D], opts DROptions) (Estimate, error) {
	return DoublyRobustViewCtx(context.Background(), v, newPolicy, model, opts)
}

// DoublyRobustViewCtx is DoublyRobustView with cooperative
// cancellation.
func DoublyRobustViewCtx[C any, D comparable](ctx context.Context, v *TraceView[C, D], newPolicy Policy[C, D], model RewardModel[C, D], opts DROptions) (Estimate, error) {
	a, err := evalView(ctx, v, newPolicy, model, foldDM|foldW|foldDR, opts.Clip)
	if err != nil {
		return Estimate{}, err
	}
	return a.drEstimate(opts.SelfNormalize), nil
}

// MatchedRewardsView estimates V(µ_new) by exact decision matching: it
// averages observed rewards over records whose logged decision would
// be the (deterministic, highest-probability) choice of the new policy.
// This is the CFA-style evaluator of Figure 5 — unbiased under a
// randomized old policy but starved of data as the decision space
// grows. It returns the number of matched records in Estimate.N, and
// ErrNoMatches when no record matches.
func MatchedRewardsView[C any, D comparable](v *TraceView[C, D], newPolicy Policy[C, D]) (Estimate, error) {
	a, err := evalView(context.Background(), v, newPolicy, nil, foldMatch, 0)
	if err != nil {
		return Estimate{}, err
	}
	return a.matchedEstimate()
}

// DiagnoseView computes overlap diagnostics between the trace's
// logging policy and a target policy.
func DiagnoseView[C any, D comparable](v *TraceView[C, D], newPolicy Policy[C, D]) (Diagnostics, error) {
	return DiagnoseViewCtx(context.Background(), v, newPolicy)
}

// DiagnoseViewCtx is DiagnoseView with cooperative cancellation.
func DiagnoseViewCtx[C any, D comparable](ctx context.Context, v *TraceView[C, D], newPolicy Policy[C, D]) (Diagnostics, error) {
	a, err := evalView(ctx, v, newPolicy, nil, foldDiag, 0)
	if err != nil {
		return Diagnostics{}, err
	}
	return a.diagnostics(), nil
}

// SwitchOptions configures SwitchDRView.
type SwitchOptions struct {
	// Tau is the importance-weight threshold: records whose weight
	// exceeds Tau contribute through the reward model alone; the rest
	// keep the full DR correction. Tau <= 0 selects a data-driven
	// default (the 95th percentile of the weights, at least 1).
	Tau float64
}

// SwitchDRView is the SWITCH estimator of Wang, Agarwal & Dudík (2017)
// adapted to the DR form: a per-record interpolation between DR (where
// importance weights are moderate, so the correction is trustworthy)
// and the pure Direct Method (where weights explode, so the correction
// would inject more variance than the model's bias costs).
//
// Compared with hard clipping (DROptions.Clip), switching drops the
// partially-corrected term entirely above the threshold instead of
// keeping a truncated — and therefore systematically understated —
// correction. On traces logged by nearly deterministic policies (§4.1's
// regime) this is often the better bias/variance point.
func SwitchDRView[C any, D comparable](v *TraceView[C, D], newPolicy Policy[C, D], model RewardModel[C, D], opts SwitchOptions) (Estimate, error) {
	n := v.Len()
	if n == 0 {
		return Estimate{}, ErrEmptyTrace
	}
	tb := newTable(v, newPolicy, model)
	defer tb.release()
	if tb.bad >= 0 {
		return Estimate{}, tb.badErr
	}
	weight := func(i int) float64 {
		return tb.probFirst[int(v.ctxCodes[i])*tb.k+int(v.decCodes[i])] / v.propensities[i]
	}
	tau := opts.Tau
	if tau <= 0 {
		ws := make([]float64, n)
		for i := range ws {
			ws[i] = weight(i)
		}
		tau = math.Max(1, mathx.Quantile(ws, 0.95))
	}
	var sum, keptW, keptW2, maxW float64
	var kept int
	var sp spread
	for i := 0; i < n; i++ {
		u, kc := int(v.ctxCodes[i]), int(v.decCodes[i])
		c := tb.dm[u]
		if w := weight(i); w <= tau {
			c += w * (v.rewards[i] - tb.pred[u*tb.k+kc])
			kept++
			keptW += w
			keptW2 += w * w
			if w > maxW {
				maxW = w
			}
		}
		sum += c
		sp.add(c, i == 0)
	}
	est := Estimate{Value: sum / float64(n), StdErr: sp.stdErr(n), N: n, ESS: float64(n), MaxWeight: maxW}
	if kept > 0 {
		est.ESS = ess(keptW, keptW2)
	}
	return est, nil
}

// ModelFitter fits a reward model on a subset of trace records. It is
// used by CrossFitDRView to keep the model independent of the records
// it corrects.
type ModelFitter[C any, D comparable] func(Trace[C, D]) (RewardModel[C, D], error)

// CrossFitDRView runs the doubly robust estimator with K-fold
// cross-fitting: records are assigned to folds round-robin, the reward
// model for each fold is fit on the other K−1 folds, and fold-local DR
// estimates are averaged.
//
// Cross-fitting matters whenever the reward model is estimated from the
// evaluation trace itself (the common case — e.g. CFA's k-NN model).
// A model fit on all records partially memorizes each logged reward, so
// the DR residuals r_k − r̂(c_k, d_k) collapse toward zero and DR
// silently degrades to the biased Direct Method. Fitting out-of-fold
// restores the correction.
func CrossFitDRView[C any, D comparable](v *TraceView[C, D], newPolicy Policy[C, D], fit ModelFitter[C, D], folds int, opts DROptions) (Estimate, error) {
	n := v.Len()
	if n == 0 {
		return Estimate{}, ErrEmptyTrace
	}
	if folds < 2 {
		return Estimate{}, errors.New("core: cross-fitting needs at least 2 folds")
	}
	if folds > n {
		folds = n
	}
	var total, weightSum float64
	var used int
	agg := Estimate{}
	evalIdx := make([]int, 0, n/folds+1)
	for f := 0; f < folds; f++ {
		var fitPart Trace[C, D]
		evalIdx = evalIdx[:0]
		for i := 0; i < n; i++ {
			if i%folds == f {
				//lint:allow hotalloc per-fold index list, preallocated to its final size
				evalIdx = append(evalIdx, i)
			} else {
				//lint:allow hotalloc per-fold training partition; cross-fitting is inherently O(n) per fold
				fitPart = append(fitPart, v.At(i))
			}
		}
		model, err := fit(fitPart)
		if err != nil {
			return Estimate{}, fmt.Errorf("core: fold %d model fit: %w", f, err)
		}
		tb := newTable(v, newPolicy, model)
		a := acc{want: foldDM | foldW | foldDR, clip: opts.Clip}
		if err = tb.invalidIn(v.ctxCodes, evalIdx); err == nil {
			err = foldView(context.Background(), &a, tb.tables, v, 0, len(evalIdx), evalIdx)
		}
		tb.release()
		if err != nil {
			return Estimate{}, fmt.Errorf("core: fold %d: %w", f, err)
		}
		est := a.drEstimate(opts.SelfNormalize)
		w := float64(est.N)
		total += est.Value * w
		weightSum += w
		used += est.N
		agg.ESS += est.ESS
		if est.MaxWeight > agg.MaxWeight {
			agg.MaxWeight = est.MaxWeight
		}
		// Pool fold variances (approximate: folds are independent).
		agg.StdErr += est.StdErr * est.StdErr * w * w
	}
	agg.Value = total / weightSum
	agg.N = used
	agg.StdErr = math.Sqrt(agg.StdErr) / weightSum
	return agg, nil
}
