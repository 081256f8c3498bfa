package core

import (
	"context"
	"fmt"
	"math"
)

// TraceView is a struct-of-arrays projection of a Trace: the float
// columns (rewards, propensities) are contiguous, and the generic
// context/decision values are interned into small-integer codes with a
// dictionary back to the original values. It is built once from a
// Trace and then shared, read-only, by every estimator evaluation —
// the *View estimator variants compute from the columns with pooled
// scratch buffers instead of walking []Record, and the bootstrap
// resamples it by index instead of copying records.
//
// Invariants established at construction and relied on by the hot
// path:
//   - every record passed Trace.Validate (propensity in (0,1], finite
//     reward), so the estimators skip re-validation;
//   - contexts/decisions dictionaries are in first-occurrence order,
//     so per-unique-context work observes values in the same order a
//     sequential record scan would;
//   - len(contexts)·len(decisions) tables fit in memory (the estimators
//     build per-(context,decision) tables; interning is designed for
//     traces whose context/decision spaces are much smaller than n,
//     which is the regime of every workload in this repository).
//
// Results over a view equal a per-record evaluation provided the
// policy and reward model are pure functions that do not distinguish
// between contexts the view interned together (for NewTraceView:
// contexts that compare equal; for NewTraceViewKeyed: contexts with
// equal keys); the oracle tests in oracle_test.go check this.
type TraceView[C any, D comparable] struct {
	rewards      []float64
	propensities []float64
	ctxCodes     []int32
	decCodes     []int32

	// contexts and decisions are the interning dictionaries, in
	// first-occurrence order; ctxFirst[u] is the record index at which
	// context code u first appeared (used to report validation errors
	// at the same record index as a sequential scan).
	contexts  []C
	ctxFirst  []int32
	decisions []D
	decIndex  map[D]int32
	// lookup resolves an arbitrary context value to its code (closure
	// over the constructor's interning map, so the comparable and
	// keyed constructors share one struct layout).
	lookup func(C) (int32, bool)
}

// NewTraceView builds a columnar view of t, interning contexts by
// value (C must be comparable). It validates exactly like
// Trace.Validate and fails with the same error on the same record.
func NewTraceView[C comparable, D comparable](t Trace[C, D]) (*TraceView[C, D], error) {
	index := make(map[C]int32)
	intern := func(c C) (int32, bool) {
		if u, ok := index[c]; ok {
			return u, false
		}
		u := int32(len(index))
		index[c] = u
		return u, true
	}
	lookup := func(c C) (int32, bool) {
		u, ok := index[c]
		return u, ok
	}
	return buildView(context.Background(), t, intern, lookup)
}

// NewTraceViewKeyed builds a columnar view of t for context types that
// are not comparable (feature vectors, slices): contexts are interned
// by the caller-supplied key. The key must be injective up to
// behavioral equivalence — contexts mapping to the same key must be
// indistinguishable to every policy and reward model evaluated against
// the view, or the *View estimators stop matching a per-record
// evaluation.
func NewTraceViewKeyed[C any, D comparable](t Trace[C, D], key func(C) string) (*TraceView[C, D], error) {
	return NewTraceViewKeyedCtx(context.Background(), t, key)
}

// NewTraceViewKeyedCtx is NewTraceViewKeyed with cooperative
// cancellation: ctx is checked once per chunk of records during the
// build pass.
func NewTraceViewKeyedCtx[C any, D comparable](ctx context.Context, t Trace[C, D], key func(C) string) (*TraceView[C, D], error) {
	index := make(map[string]int32)
	intern := func(c C) (int32, bool) {
		k := key(c)
		if u, ok := index[k]; ok {
			return u, false
		}
		u := int32(len(index))
		index[k] = u
		return u, true
	}
	lookup := func(c C) (int32, bool) {
		u, ok := index[key(c)]
		return u, ok
	}
	return buildView(ctx, t, intern, lookup)
}

// buildView is the shared constructor body: one pass that validates
// (with Trace.Validate's exact semantics and error text), interns, and
// fills the columns.
func buildView[C any, D comparable](ctx context.Context, t Trace[C, D], intern func(C) (int32, bool), lookup func(C) (int32, bool)) (*TraceView[C, D], error) {
	if int64(len(t)) > math.MaxInt32 {
		return nil, fmt.Errorf("core: trace length %d exceeds TraceView capacity", len(t))
	}
	v := &TraceView[C, D]{
		rewards:      make([]float64, len(t)),
		propensities: make([]float64, len(t)),
		ctxCodes:     make([]int32, len(t)),
		decCodes:     make([]int32, len(t)),
		decIndex:     make(map[D]int32),
		lookup:       lookup,
	}
	for i, rec := range t {
		if i%estimatorGrain == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		// The negated comparison also rejects NaN propensities, exactly
		// as in Trace.Validate.
		if !(rec.Propensity > 0) || rec.Propensity > 1 {
			return nil, fmt.Errorf("core: record %d has propensity %g, want (0,1]", i, rec.Propensity)
		}
		if math.IsNaN(rec.Reward) {
			return nil, fmt.Errorf("core: record %d has NaN reward", i)
		}
		if math.IsInf(rec.Reward, 0) {
			return nil, fmt.Errorf("core: record %d has infinite reward", i)
		}
		u, isNew := intern(rec.Context)
		if isNew {
			v.contexts = append(v.contexts, rec.Context)
			v.ctxFirst = append(v.ctxFirst, int32(i))
		}
		k, ok := v.decIndex[rec.Decision]
		if !ok {
			k = int32(len(v.decisions))
			v.decisions = append(v.decisions, rec.Decision)
			v.decIndex[rec.Decision] = k
		}
		v.ctxCodes[i] = u
		v.decCodes[i] = k
		v.rewards[i] = rec.Reward
		v.propensities[i] = rec.Propensity
	}
	return v, nil
}

// Len returns the number of records in the view.
func (v *TraceView[C, D]) Len() int { return len(v.rewards) }

// NumContexts returns the number of distinct interned contexts.
func (v *TraceView[C, D]) NumContexts() int { return len(v.contexts) }

// NumDecisions returns the number of distinct logged decisions.
func (v *TraceView[C, D]) NumDecisions() int { return len(v.decisions) }

// At reconstructs record i. The context is the dictionary
// representative (the first record that interned to the same code).
func (v *TraceView[C, D]) At(i int) Record[C, D] {
	return Record[C, D]{
		Context:    v.contexts[v.ctxCodes[i]],
		Decision:   v.decisions[v.decCodes[i]],
		Reward:     v.rewards[i],
		Propensity: v.propensities[i],
	}
}

// RewardAt returns record i's reward without reconstructing the record.
func (v *TraceView[C, D]) RewardAt(i int) float64 { return v.rewards[i] }

// PropensityAt returns record i's logged propensity.
func (v *TraceView[C, D]) PropensityAt(i int) float64 { return v.propensities[i] }

// ContextCode returns record i's interned context code, in
// [0, NumContexts). Codes are assigned in first-occurrence order.
func (v *TraceView[C, D]) ContextCode(i int) int { return int(v.ctxCodes[i]) }

// DecisionCode returns record i's interned decision code, in
// [0, NumDecisions).
func (v *TraceView[C, D]) DecisionCode(i int) int { return int(v.decCodes[i]) }

// ContextValue returns the dictionary representative of context code u
// (the context of the first record that interned to u).
func (v *TraceView[C, D]) ContextValue(u int) C { return v.contexts[u] }

// DecisionValue returns the decision for dictionary code k.
func (v *TraceView[C, D]) DecisionValue(k int) D { return v.decisions[k] }

// DecisionIndex resolves a decision value to its dictionary code,
// reporting false for decisions never logged in the trace.
func (v *TraceView[C, D]) DecisionIndex(d D) (int, bool) {
	k, ok := v.decIndex[d]
	return int(k), ok
}

// Rewards returns a copy of the reward column.
func (v *TraceView[C, D]) Rewards() []float64 {
	out := make([]float64, len(v.rewards))
	copy(out, v.rewards)
	return out
}

// MeanReward returns the average logged reward, bit-identical to
// Trace.MeanReward (same in-order summation).
func (v *TraceView[C, D]) MeanReward() float64 {
	if len(v.rewards) == 0 {
		return 0
	}
	s := 0.0
	for _, r := range v.rewards {
		s += r
	}
	return s / float64(len(v.rewards))
}

// UniqueContexts returns a copy of the context dictionary in
// first-occurrence order.
func (v *TraceView[C, D]) UniqueContexts() []C {
	out := make([]C, len(v.contexts))
	copy(out, v.contexts)
	return out
}

// UniqueDecisions returns a copy of the decision dictionary in
// first-occurrence order.
func (v *TraceView[C, D]) UniqueDecisions() []D {
	out := make([]D, len(v.decisions))
	copy(out, v.decisions)
	return out
}
