package core

import (
	"context"
	"fmt"
	"math"
)

// TraceView is a struct-of-arrays projection of a Trace: the float
// columns (rewards, propensities) are contiguous, and the generic
// context/decision values are interned into small-integer codes with a
// dictionary back to the original values. Every view is a ViewBuilder
// snapshot (NewTraceView fills a fresh builder), shared, read-only, by
// every estimator evaluation — the *View estimator variants compute
// from the columns with pooled scratch buffers instead of walking
// []Record, and the bootstrap resamples it by index instead of copying
// records.
//
// Invariants established at construction and relied on by the hot
// path:
//   - every record passed Trace.Validate (propensity in (0,1], finite
//     reward), so the estimators skip re-validation;
//   - contexts/decisions dictionaries are in first-occurrence order,
//     so per-unique-context work observes values in the same order a
//     sequential record scan would, and every snapshot of a builder
//     gives a context or decision the same code;
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
	// src is the builder the view is a prefix of; src.lookup(c,
	// len(contexts)) resolves a context value to the view's code.
	src *ViewBuilder[C, D]
}

// NewTraceView builds a columnar view of t, interning contexts by
// value (C must be comparable). It validates exactly like
// Trace.Validate and fails with the same error on the same record.
func NewTraceView[C comparable, D comparable](t Trace[C, D]) (*TraceView[C, D], error) {
	return fill(context.Background(), NewViewBuilder[C, D](), t)
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
	return fill(ctx, NewViewBuilderKeyed[C, D](key), t)
}

// fill appends t to the empty builder b under one hold of b.mu and
// returns its snapshot. It checks and interns each record as Append
// does, but writes the four columns, presized to len(t), by index.
func fill[C any, D comparable](ctx context.Context, b *ViewBuilder[C, D], t Trace[C, D]) (*TraceView[C, D], error) {
	if int64(len(t)) > math.MaxInt32 {
		return nil, fmt.Errorf("core: trace length %d exceeds TraceView capacity", len(t))
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	rewards, propensities := make([]float64, len(t)), make([]float64, len(t))
	ctxCodes, decCodes := make([]int32, len(t)), make([]int32, len(t))
	for i, rec := range t {
		if i%estimatorGrain == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		if err := checkRecord(i, rec.Propensity, rec.Reward); err != nil {
			return nil, err
		}
		u, isNew := b.intern(rec.Context)
		k := b.dictLocked(rec, int32(i), isNew) // inlined as a statement of its own
		ctxCodes[i], decCodes[i] = u, k
		rewards[i], propensities[i] = rec.Reward, rec.Propensity
	}
	b.rewards, b.propensities, b.ctxCodes, b.decCodes = rewards, propensities, ctxCodes, decCodes
	return b.snapshotLocked(), nil
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
