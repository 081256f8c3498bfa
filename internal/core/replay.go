package core

import (
	"context"

	"drnet/internal/mathx"
)

// HistoryPolicy is a non-stationary policy: its decision distribution for
// the current context may depend on the history of (context, decision,
// reward) triples it has accepted so far. Most real networking policies
// are of this kind (§4.1 "stationarity of policies") — e.g. an ABR
// algorithm whose bitrate choice depends on previously observed
// throughput.
type HistoryPolicy[C any, D comparable] interface {
	// DistributionWithHistory returns the decision distribution for
	// context c given the policy's accepted history.
	DistributionWithHistory(history Trace[C, D], c C) []Weighted[D]
}

// Stationary adapts a history-agnostic Policy into a HistoryPolicy.
type Stationary[C any, D comparable] struct {
	Policy Policy[C, D]
}

// DistributionWithHistory implements HistoryPolicy by ignoring history.
func (s Stationary[C, D]) DistributionWithHistory(_ Trace[C, D], c C) []Weighted[D] {
	return s.Policy.Distribution(c)
}

// HistoryFuncPolicy adapts a function into a HistoryPolicy.
type HistoryFuncPolicy[C any, D comparable] func(history Trace[C, D], c C) []Weighted[D]

// DistributionWithHistory implements HistoryPolicy.
func (f HistoryFuncPolicy[C, D]) DistributionWithHistory(h Trace[C, D], c C) []Weighted[D] {
	return f(h, c)
}

// ReplayResult reports the outcome of ReplayDR.
type ReplayResult struct {
	Estimate Estimate
	// Accepted is the number of trace records on which the sampled new
	// policy decision matched the logged decision (|g_{n+1}| in the
	// paper's §4.2 algorithm).
	Accepted int
	// Skipped is the number of records rejected by the replayer.
	Skipped int
}

// ReplayDR evaluates a non-stationary new policy on a trace using the
// paper's §4.2 rejection-sampling extension of DR (after Li et al.'s
// contextual-bandit replayer):
//
// For each record k, sample d' ~ µ_new(·|c_k, g_k) where g_k is the
// history of previously accepted records. If d' equals the logged
// decision d_k, update the running DR sum with the per-client Eq. 2 term
// and append the record to g; otherwise skip the record. The estimate is
// the accumulated sum divided by the number of accepted records.
//
// When the target policy is stationary this estimator coincides in
// expectation with DoublyRobustView, which TestReplayMatchesDRStationary
// verifies.
func ReplayDR[C any, D comparable](t Trace[C, D], newPolicy HistoryPolicy[C, D], model RewardModel[C, D], rng *mathx.RNG) (ReplayResult, error) {
	return ReplayDRCtx(context.Background(), t, newPolicy, model, rng)
}

// ReplayDRCtx is ReplayDR with cooperative cancellation. The replayer
// is inherently sequential (each record's distribution depends on the
// history accepted so far), so ctx is checked once per chunk of
// records; a cancelled ctx stops the replay within one chunk boundary
// and returns ctx's error.
func ReplayDRCtx[C any, D comparable](ctx context.Context, t Trace[C, D], newPolicy HistoryPolicy[C, D], model RewardModel[C, D], rng *mathx.RNG) (ReplayResult, error) {
	if len(t) == 0 {
		return ReplayResult{}, ErrEmptyTrace
	}
	if err := t.Validate(); err != nil {
		return ReplayResult{}, err
	}
	var accepted Trace[C, D]
	var sum, sumW, sumW2, maxW float64
	var sp spread
	for k, rec := range t {
		if k%estimatorGrain == 0 {
			if err := ctx.Err(); err != nil {
				return ReplayResult{}, err
			}
		}
		dist := newPolicy.DistributionWithHistory(accepted, rec.Context)
		if err := ValidateDistribution(dist); err != nil {
			return ReplayResult{}, err
		}
		probs := make([]float64, len(dist))
		for i, w := range dist {
			probs[i] = w.Prob
		}
		sampled := dist[rng.Categorical(probs)].Decision
		if sampled != rec.Decision {
			continue
		}
		// DM part: Σ_d µ_new(d|c_k, g_k) · r̂(c_k, d).
		dm := 0.0
		var pNew float64
		for _, w := range dist {
			if w.Prob == 0 {
				continue
			}
			dm += w.Prob * model.Predict(rec.Context, w.Decision)
			if w.Decision == rec.Decision {
				pNew = w.Prob
			}
		}
		w := pNew / rec.Propensity
		c := dm + w*(rec.Reward-model.Predict(rec.Context, rec.Decision))
		sum += c
		sp.add(c, len(accepted) == 0)
		sumW += w
		sumW2 += w * w
		if w > maxW {
			maxW = w
		}
		accepted = append(accepted, rec)
	}
	if len(accepted) == 0 {
		return ReplayResult{Skipped: len(t)}, ErrNoMatches
	}
	n := len(accepted)
	return ReplayResult{
		Estimate: Estimate{Value: sum / float64(n), StdErr: sp.stdErr(n), N: n, ESS: ess(sumW, sumW2), MaxWeight: maxW},
		Accepted: len(accepted),
		Skipped:  len(t) - len(accepted),
	}, nil
}
