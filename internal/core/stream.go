package core

import (
	"context"
	"fmt"
	"math"
	"sync"
)

// This file is the incremental-evaluation engine behind streaming
// ingestion: an appendable columnar store (ViewBuilder) plus StreamEval,
// which folds each new batch of a growing snapshot into the same fold
// state the batch *View calls use (fold.go). A stream therefore equals
// the batch estimators over the same prefix bit for bit, whatever the
// batch sizes, and two StreamEvals fed the same records in the same
// order end in identical states — the WAL replay invariant.

// ViewBuilder is an appendable TraceView: records stream in via
// Append with exactly buildView's validation (same error text, same
// record indexing), and Snapshot exposes the current prefix as a
// read-only TraceView in O(U+K) — the backing columns are shared
// (append-only, so the snapshotted prefix is immutable) and only the
// small interning indexes are copied.
//
// Append and Snapshot are safe for concurrent use with each other; the
// returned views are immutable and safe to share across goroutines.
type ViewBuilder[C any, D comparable] struct {
	mu           sync.Mutex
	rewards      []float64   // guarded by mu
	propensities []float64   // guarded by mu
	ctxCodes     []int32     // guarded by mu
	decCodes     []int32     // guarded by mu
	contexts     []C         // guarded by mu
	ctxFirst     []int32     // guarded by mu
	decisions    []D         // guarded by mu
	decIndex     map[D]int32 // guarded by mu
	intern       func(C) (int32, bool)
	// copyLookup clones the context-interning index under the lock and
	// returns a lookup closure over the clone, so snapshots never read
	// a map a concurrent Append is writing.
	copyLookup func() func(C) (int32, bool)
}

// NewViewBuilder returns an empty builder interning contexts by value
// (the streaming NewTraceView).
func NewViewBuilder[C comparable, D comparable]() *ViewBuilder[C, D] {
	b := newViewBuilder[C, D]()
	index := make(map[C]int32)
	b.intern = func(c C) (int32, bool) {
		if u, ok := index[c]; ok {
			return u, false
		}
		u := int32(len(index))
		index[c] = u
		return u, true
	}
	b.copyLookup = func() func(C) (int32, bool) {
		cp := make(map[C]int32, len(index))
		for k, v := range index {
			cp[k] = v
		}
		return func(c C) (int32, bool) {
			u, ok := cp[c]
			return u, ok
		}
	}
	return b
}

// NewViewBuilderKeyed returns an empty builder interning contexts by
// key (the streaming NewTraceViewKeyed). The key must be injective up
// to behavioral equivalence, exactly as for NewTraceViewKeyed.
func NewViewBuilderKeyed[C any, D comparable](key func(C) string) *ViewBuilder[C, D] {
	b := newViewBuilder[C, D]()
	index := make(map[string]int32)
	b.intern = func(c C) (int32, bool) {
		k := key(c)
		if u, ok := index[k]; ok {
			return u, false
		}
		u := int32(len(index))
		index[k] = u
		return u, true
	}
	b.copyLookup = func() func(C) (int32, bool) {
		cp := make(map[string]int32, len(index))
		for k, v := range index {
			cp[k] = v
		}
		return func(c C) (int32, bool) {
			u, ok := cp[key(c)]
			return u, ok
		}
	}
	return b
}

func newViewBuilder[C any, D comparable]() *ViewBuilder[C, D] {
	return &ViewBuilder[C, D]{decIndex: make(map[D]int32)}
}

// Append validates and appends one record, returning buildView's exact
// error for invalid input (with the record's stream index). On error
// nothing is appended.
func (b *ViewBuilder[C, D]) Append(rec Record[C, D]) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	i := len(b.rewards)
	if int64(i) >= math.MaxInt32 {
		return fmt.Errorf("core: trace length %d exceeds TraceView capacity", i+1)
	}
	// The negated comparison also rejects NaN propensities, exactly as
	// in Trace.Validate / buildView.
	if !(rec.Propensity > 0) || rec.Propensity > 1 {
		return fmt.Errorf("core: record %d has propensity %g, want (0,1]", i, rec.Propensity)
	}
	if math.IsNaN(rec.Reward) {
		return fmt.Errorf("core: record %d has NaN reward", i)
	}
	if math.IsInf(rec.Reward, 0) {
		return fmt.Errorf("core: record %d has infinite reward", i)
	}
	u, isNew := b.intern(rec.Context)
	if isNew {
		b.contexts = append(b.contexts, rec.Context)
		b.ctxFirst = append(b.ctxFirst, int32(i))
	}
	k, ok := b.decIndex[rec.Decision]
	if !ok {
		k = int32(len(b.decisions))
		b.decisions = append(b.decisions, rec.Decision)
		b.decIndex[rec.Decision] = k
	}
	b.ctxCodes = append(b.ctxCodes, u)
	b.decCodes = append(b.decCodes, k)
	b.rewards = append(b.rewards, rec.Reward)
	b.propensities = append(b.propensities, rec.Propensity)
	return nil
}

// Len returns the number of records appended so far.
func (b *ViewBuilder[C, D]) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.rewards)
}

// Snapshot returns the current prefix as an immutable TraceView. Cost
// is O(unique contexts + unique decisions): the record columns are
// shared with the builder (their [0, Len) prefix never changes; the
// three-index slices pin capacity so neither side can grow into the
// other's view) and only the dictionaries' index maps are copied.
func (b *ViewBuilder[C, D]) Snapshot() *TraceView[C, D] {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := len(b.rewards)
	u := len(b.contexts)
	k := len(b.decisions)
	decIndex := make(map[D]int32, k)
	for d, code := range b.decIndex {
		decIndex[d] = code
	}
	return &TraceView[C, D]{
		rewards:      b.rewards[:n:n],
		propensities: b.propensities[:n:n],
		ctxCodes:     b.ctxCodes[:n:n],
		decCodes:     b.decCodes[:n:n],
		contexts:     b.contexts[:u:u],
		ctxFirst:     b.ctxFirst[:u:u],
		decisions:    b.decisions[:k:k],
		decIndex:     decIndex,
		lookup:       b.copyLookup(),
	}
}

// StreamOptions configures a StreamEval's weighting, mirroring the
// batch estimators' knobs.
type StreamOptions struct {
	// Clip caps IPS/DR importance weights (0 disables), as in
	// IPSOptions.Clip / DROptions.Clip.
	Clip float64
}

// StreamEstimates is one O(1) read of a StreamEval's aggregates: the
// three production estimators plus the Diagnose block, over the first
// N records. Each field equals the batch call over the same prefix.
type StreamEstimates struct {
	DM          Estimate
	IPS         Estimate // plain inverse propensity scoring
	SNIPS       Estimate // self-normalized IPS
	DR          Estimate // doubly robust, frozen model
	SNDR        Estimate // self-normalized DR
	Diagnostics Diagnostics
}

// StreamEval folds streaming records into the running sums of ONE
// (policy, frozen model) pair. It is not safe for concurrent use — the
// owner serializes Apply calls (drevald holds its ingest lock), which
// also fixes the fold order that makes replay bit-exact.
type StreamEval[C any, D comparable] struct {
	tb  ctxTable[C, D]
	acc acc
}

// NewStreamEval returns an empty accumulator for one policy and one
// FROZEN reward model. The model must be a pure function of (context,
// decision) for the lifetime of the accumulator; refitting requires a
// new StreamEval (drevald re-registers the policy fingerprint).
func NewStreamEval[C any, D comparable](policy Policy[C, D], model RewardModel[C, D], opts StreamOptions) *StreamEval[C, D] {
	s := &StreamEval[C, D]{
		tb:  ctxTable[C, D]{tables: new(tables), policy: policy, model: model},
		acc: acc{want: foldAll, clip: opts.Clip},
	}
	s.tb.reset()
	return s
}

// N returns how many records have been folded in.
func (s *StreamEval[C, D]) N() int { return s.acc.n }

// Apply folds records [from, v.Len()) of a snapshot into the
// aggregates. from must equal N() — records are folded exactly once,
// in order — and v must be a snapshot of the same logical stream the
// previous Apply calls consumed (same interning order).
func (s *StreamEval[C, D]) Apply(v *TraceView[C, D], from int) error {
	if from != s.acc.n {
		return fmt.Errorf("core: StreamEval.Apply from %d, want %d (records fold exactly once, in order)", from, s.acc.n)
	}
	if v.Len() < from {
		return fmt.Errorf("core: StreamEval.Apply snapshot has %d records, already folded %d", v.Len(), from)
	}
	s.tb.extend(v)
	return foldView(context.Background(), &s.acc, s.tb.tables, v, from, v.Len(), nil)
}

// Estimates reads the aggregates in O(1). DM and DR return the batch
// estimators' invalid-distribution error when one was seen; IPS,
// SNIPS and Diagnostics are always available, exactly as in the batch
// path (which never validates distributions for them).
func (s *StreamEval[C, D]) Estimates() (StreamEstimates, error) {
	if s.acc.n == 0 {
		return StreamEstimates{}, ErrEmptyTrace
	}
	out := StreamEstimates{
		IPS:         s.acc.ipsEstimate(false),
		SNIPS:       s.acc.ipsEstimate(true),
		Diagnostics: s.acc.diagnostics(),
	}
	if err := s.tb.invalidErr(); err != nil {
		return out, err
	}
	out.DM = s.acc.dmEstimate()
	out.DR = s.acc.drEstimate(false)
	out.SNDR = s.acc.drEstimate(true)
	return out, nil
}
