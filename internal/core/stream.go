package core

import (
	"context"
	"errors"
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

// ViewBuilder is an appendable TraceView, and every TraceView is one
// of its snapshots: records stream in via Append with Trace.Validate's
// checks (same error text, indexed by stream position), and Snapshot
// exposes the current prefix as a read-only TraceView in O(K) — the
// backing columns are shared (append-only, so the snapshotted prefix
// is immutable), only the decision index is copied, and a snapshot
// resolves other contexts through the builder's own context index.
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
	// keys is a keyed builder's interning index, nil for a builder that
	// interns by value.
	keys   map[string]int32 // guarded by mu
	intern func(C) (int32, bool)
	// lookup resolves a context to the code the builder interned it
	// under, reporting false unless that code is below n. It takes mu
	// itself, so a snapshot or a fit on one, which holds only codes
	// below its context count, reads the index a concurrent Append is
	// writing safely.
	lookup func(c C, n int32) (int32, bool)
}

// NewViewBuilder returns an empty builder interning contexts by value:
// each snapshot is the NewTraceView of the records appended so far.
func NewViewBuilder[C comparable, D comparable]() *ViewBuilder[C, D] {
	b := newViewBuilder[C, D](nil)
	index := make(map[C]int32)
	b.intern = func(c C) (int32, bool) {
		if u, ok := index[c]; ok {
			return u, false
		}
		u := int32(len(index))
		index[c] = u
		return u, true
	}
	b.lookup = func(c C, n int32) (int32, bool) {
		b.mu.Lock()
		u, ok := index[c]
		b.mu.Unlock()
		return u, ok && u < n
	}
	return b
}

// NewViewBuilderKeyed returns an empty builder interning contexts by
// key: each snapshot is the NewTraceViewKeyed of the records appended
// so far. The key must be injective up to behavioral equivalence.
func NewViewBuilderKeyed[C any, D comparable](key func(C) string) *ViewBuilder[C, D] {
	keys := make(map[string]int32)
	b := newViewBuilder[C, D](keys)
	b.intern = func(c C) (int32, bool) { return internKey(keys, key(c)) }
	b.lookup = func(c C, n int32) (int32, bool) {
		k := key(c)
		b.mu.Lock()
		u, ok := keys[k]
		b.mu.Unlock()
		return u, ok && u < n
	}
	return b
}

// internKey returns k's code in keys, adding it when absent.
func internKey(keys map[string]int32, k string) (int32, bool) {
	if u, ok := keys[k]; ok {
		return u, false
	}
	u := int32(len(keys))
	keys[k] = u
	return u, true
}

func newViewBuilder[C any, D comparable](keys map[string]int32) *ViewBuilder[C, D] {
	return &ViewBuilder[C, D]{decIndex: make(map[D]int32), keys: keys}
}

// Append validates and appends one record, returning Trace.Validate's
// error for invalid input (with the record's stream index). On error
// nothing is appended.
func (b *ViewBuilder[C, D]) Append(rec Record[C, D]) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if err := b.checkLocked(rec); err != nil {
		return err
	}
	u, isNew := b.intern(rec.Context)
	b.pushLocked(rec, u, isNew)
	return nil
}

// Run is a staged run of records for AppendRun, as a decoder writes it:
// the reward and propensity columns, and for each record a slot into
// the run's own context and decision dictionaries, so a decoder that
// meets one context or label many times keys and interns it once.
type Run[C any, D comparable] struct {
	Rewards      []float64
	Propensities []float64
	// CtxSlots[i] and DecSlots[i] index record i's context in Contexts
	// and its decision in Decisions.
	CtxSlots  []int32
	DecSlots  []int32
	Contexts  []RunContext[C]
	Decisions []D
}

// RunContext is one context slot of a Run.
type RunContext[C any] struct {
	Context C
	// Key is the context's key under the builder's key function. It is
	// not read when Code is the code the builder already gave the
	// context (Known); Code is -1 for a context that interns by Key.
	Key  string
	Code int32
}

// Validate applies Append's checks to every record of the run, indexed
// from 0.
func (r *Run[C, D]) Validate() error { return r.check(0) }

// check is Validate with the run's first record at stream index base.
func (r *Run[C, D]) check(base int) error {
	if len(r.Propensities) != len(r.Rewards) || len(r.CtxSlots) != len(r.Rewards) || len(r.DecSlots) != len(r.Rewards) {
		return errors.New("core: run columns differ in length")
	}
	for i, reward := range r.Rewards {
		if int64(base+i) >= math.MaxInt32 {
			return fmt.Errorf("core: trace length %d exceeds TraceView capacity", base+i+1)
		}
		if err := checkRecord(base+i, r.Propensities[i], reward); err != nil {
			return err
		}
	}
	return nil
}

// AppendRun appends a staged run under one hold of the builder's lock,
// exactly as Append would append its records one by one: it checks
// every record with Append's error text and stream index, and on any
// error appends nothing. Each slot interns once, at its first record:
// by its key, or as the code it carries, which must be one the builder
// has assigned. The run's codes and slot columns are rewritten in
// place, and an empty builder adopts all four columns without a copy,
// so a run is appended once and not used after. Only builders from
// NewViewBuilderKeyed accept it.
func (b *ViewBuilder[C, D]) AppendRun(r *Run[C, D]) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.keys == nil {
		return errors.New("core: AppendRun needs a builder from NewViewBuilderKeyed")
	}
	base := len(b.rewards)
	if err := r.check(base); err != nil {
		return err
	}
	for _, c := range r.Contexts {
		if int(c.Code) >= len(b.contexts) {
			return fmt.Errorf("core: context code %d not interned (%d contexts)", c.Code, len(b.contexts))
		}
	}
	for i, s := range r.CtxSlots {
		c := &r.Contexts[s]
		if c.Code < 0 {
			var isNew bool
			if c.Code, isNew = internKey(b.keys, c.Key); isNew {
				b.contexts = append(b.contexts, c.Context)
				b.ctxFirst = append(b.ctxFirst, int32(base+i))
			}
		}
		r.CtxSlots[i] = c.Code
	}
	decCode := make([]int32, len(r.Decisions))
	for s := range decCode {
		decCode[s] = -1
	}
	for i, s := range r.DecSlots {
		k := decCode[s]
		if k < 0 {
			k = b.decisionLocked(r.Decisions[s])
			decCode[s] = k
		}
		r.DecSlots[i] = k
	}
	if base == 0 {
		b.rewards, b.propensities, b.ctxCodes, b.decCodes = r.Rewards, r.Propensities, r.CtxSlots, r.DecSlots
		return nil
	}
	b.rewards = append(b.rewards, r.Rewards...)
	b.propensities = append(b.propensities, r.Propensities...)
	b.ctxCodes = append(b.ctxCodes, r.CtxSlots...)
	b.decCodes = append(b.decCodes, r.DecSlots...)
	return nil
}

// Known returns the code and context a keyed builder interned under
// key, without allocating. It reports false for a key the builder has
// not interned, and always on a builder that interns by value.
func (b *ViewBuilder[C, D]) Known(key []byte) (int32, C, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	u, ok := b.keys[string(key)]
	if !ok {
		var zero C
		return 0, zero, false
	}
	return u, b.contexts[u], true
}

// checkLocked is Append's validation: Trace.Validate's checks, with
// the record's stream index.
func (b *ViewBuilder[C, D]) checkLocked(rec Record[C, D]) error {
	i := len(b.rewards)
	if int64(i) >= math.MaxInt32 {
		return fmt.Errorf("core: trace length %d exceeds TraceView capacity", i+1)
	}
	return checkRecord(i, rec.Propensity, rec.Reward)
}

// pushLocked appends a validated record whose context has code u.
func (b *ViewBuilder[C, D]) pushLocked(rec Record[C, D], u int32, isNew bool) {
	k := b.dictLocked(rec, int32(len(b.rewards)), isNew)
	b.ctxCodes = append(b.ctxCodes, u)
	b.decCodes = append(b.decCodes, k)
	b.rewards = append(b.rewards, rec.Reward)
	b.propensities = append(b.propensities, rec.Propensity)
}

// dictLocked records rec's context as first seen at record i when
// isNew, and returns the code of rec's decision. pushLocked and fill
// share it, each writing the record columns its own way; it and the
// decisionLocked call in it are small enough for the compiler to
// inline into both, so fill runs as fast as with its body written out.
func (b *ViewBuilder[C, D]) dictLocked(rec Record[C, D], i int32, isNew bool) int32 {
	if isNew {
		b.contexts = append(b.contexts, rec.Context)
		b.ctxFirst = append(b.ctxFirst, i)
	}
	return b.decisionLocked(rec.Decision)
}

// decisionLocked returns d's code, interning a decision not seen before.
func (b *ViewBuilder[C, D]) decisionLocked(d D) int32 {
	k, ok := b.decIndex[d]
	if !ok {
		k = int32(len(b.decisions))
		b.decisions = append(b.decisions, d)
		b.decIndex[d] = k
	}
	return k
}

// Len returns the number of records appended so far.
func (b *ViewBuilder[C, D]) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.rewards)
}

// Snapshot returns the current prefix as an immutable TraceView. Cost
// is O(unique decisions), whatever the number of contexts: the record
// columns and dictionaries are shared with the builder (their
// prefixes never change; the three-index slices pin capacity so
// neither side can grow into the other's view), only the decision
// index is copied, and the view resolves a context value through the
// builder's index, answering absent for contexts interned after it.
func (b *ViewBuilder[C, D]) Snapshot() *TraceView[C, D] {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.snapshotLocked()
}

// snapshotLocked is Snapshot with b.mu held.
func (b *ViewBuilder[C, D]) snapshotLocked() *TraceView[C, D] {
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
		src:          b,
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
	tb  Evaluation[C, D]
	acc acc
}

// NewStreamEval returns an empty accumulator for one policy and one
// FROZEN reward model. The model must be a pure function of (context,
// decision) for the lifetime of the accumulator; refitting requires a
// new StreamEval (drevald re-registers the policy fingerprint).
func NewStreamEval[C any, D comparable](policy Policy[C, D], model RewardModel[C, D], opts StreamOptions) *StreamEval[C, D] {
	s := &StreamEval[C, D]{
		tb:  Evaluation[C, D]{tables: new(tables), policy: policy, model: model},
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
func (s *StreamEval[C, D]) Estimates() (StreamEstimates, error) { return s.acc.estimates(s.tb.tables) }
