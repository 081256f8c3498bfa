package core

import (
	"context"
	"fmt"
	"slices"
	"sync"
)

// tables is the per-context table the fold and the bootstrap read: one
// policy, and optionally one reward model, flattened over a view's
// context and decision dictionaries. Rows are context codes, columns
// decision codes (row stride k). Every float is the exact value a
// per-record evaluation of a pure policy and model would produce, so
// flattening is invisible in the results.
type tables struct {
	k, numCtx int
	// probFirst[u*k+kc] is µ(d_kc|c_u) with Prob's first-match
	// semantics (the estimator weights); probLast keeps the last
	// matching entry (the Diagnose weights). Both are 0 off the support.
	probFirst, probLast []float64
	// argmax[u] is the decision code of the first maximal entry of
	// context u's distribution; -1 when that decision is not in the
	// dictionary (yet) or the distribution is empty.
	argmax []int32
	// pred[u*k+kc] = r̂(c_u, d_kc) and dm[u] = Σ_d µ(d|c_u)·r̂(c_u, d),
	// filled only when the table has a model.
	pred, dm []float64
	// Every distribution entry in order: context u owns entries
	// [off[u], off[u+1]); entCode is -1 for a decision not in the
	// dictionary (yet).
	off     []int32
	entProb []float64
	entCode []int32
	// valErr[u] is ValidateDistribution's verdict on context u. bad is
	// the record at which the first invalid context first appeared (-1
	// if none) and badErr its error: contexts are interned in record
	// order, so that is the record a per-record scan rejects first.
	valErr []error
	bad    int
	badErr error
}

// tablePool recycles an Evaluation's tables; a StreamEval owns one for
// its lifetime.
var tablePool = sync.Pool{New: func() any { return new(tables) }}

// reset empties t, keeping its capacity.
func (t *tables) reset() {
	clear(t.valErr)
	off := resize(t.off, 1)
	off[0] = 0
	*t = tables{
		probFirst: t.probFirst[:0], probLast: t.probLast[:0], argmax: t.argmax[:0],
		pred: t.pred[:0], dm: t.dm[:0],
		off: off, entProb: t.entProb[:0], entCode: t.entCode[:0],
		valErr: t.valErr[:0], bad: -1,
	}
}

// reserve sizes t for u contexts of k decisions, so a fresh table
// allocates each buffer once instead of growing it by doubling.
func (t *tables) reserve(u, k int) {
	t.probFirst, t.probLast, t.pred = slices.Grow(t.probFirst, u*k), slices.Grow(t.probLast, u*k), slices.Grow(t.pred, u*k)
	t.argmax, t.dm, t.valErr = slices.Grow(t.argmax, u), slices.Grow(t.dm, u), slices.Grow(t.valErr, u)
	t.off, t.entProb, t.entCode = slices.Grow(t.off, u), slices.Grow(t.entProb, u*k), slices.Grow(t.entCode, u*k)
}

// invalidErr is DM and DR's refusal when some record's context has an
// invalid distribution, nil otherwise.
func (t *tables) invalidErr() error {
	if t.bad < 0 {
		return nil
	}
	return fmt.Errorf("record %d: %w", t.bad, t.badErr)
}

// invalidIn is invalidErr for the record multiset idx, reporting the
// first position in idx whose context is invalid.
func (t *tables) invalidIn(ctxCodes []int32, idx []int) error {
	if t.bad < 0 {
		return nil
	}
	for j, id := range idx {
		if err := t.valErr[ctxCodes[id]]; err != nil {
			return fmt.Errorf("record %d: %w", j, err)
		}
	}
	return nil
}

// resize returns s with length n, reusing its capacity. New elements
// hold arbitrary values; callers overwrite them.
func resize[T any](s []T, n int) []T {
	if n <= cap(s) {
		return s[:n]
	}
	//lint:allow hotalloc table growth; capacity is kept across pooled uses and stream batches
	return append(s[:cap(s)], make([]T, n-cap(s))...)
}

// restride grows a rows×old row-major table to rows×k in place, moving
// rows back to front; the new columns are left for the caller.
func restride(s []float64, rows, old, k int) []float64 {
	s = resize(s, rows*k)
	for u := rows - 1; u > 0; u-- {
		copy(s[u*k:u*k+old], s[u*old:u*old+old])
	}
	return s
}

// Evaluation is one view's per-context table for one policy, and
// optionally one reward model: tables plus the generic values that
// fill it. Every estimator family, the bootstrap's packed records and
// the bias observatory's probability rows read it, so a caller that
// needs all of them asks the policy and the model once per context.
type Evaluation[C any, D comparable] struct {
	*tables
	policy Policy[C, D]
	model  RewardModel[C, D] // nil for policy-only tables
	entDec []D               // each entry's decision, to resolve codes as the dictionary grows
	// fast is the model when it is a ViewTableModel fit on a snapshot
	// of the extended view's builder that knows no decision the view
	// lacks: its dense cells are read directly.
	fast *ViewTableModel[C, D]
	v    *TraceView[C, D] // NewEvaluation's view; nil in a StreamEval's table
}

// NewEvaluation flattens policy, and model when non-nil, over v on
// pooled buffers. Release it once no result depends on it.
func NewEvaluation[C any, D comparable](v *TraceView[C, D], policy Policy[C, D], model RewardModel[C, D]) *Evaluation[C, D] {
	t := tablePool.Get().(*tables)
	t.reset()
	u, k := len(v.contexts), len(v.decisions)
	t.reserve(u, k)
	//lint:allow hotalloc one table header per evaluation; its buffers are pooled
	tb := &Evaluation[C, D]{tables: t, policy: policy, model: model, entDec: make([]D, 0, u*k), v: v}
	tb.extend(v)
	return tb
}

// Release returns the table's buffers to the pool.
func (tb *Evaluation[C, D]) Release() { tablePool.Put(tb.tables) }

// View returns the view tb was built over.
func (tb *Evaluation[C, D]) View() *TraceView[C, D] { return tb.v }

// Probs returns the policy's rows, Probs()[u*v.NumDecisions()+kc] =
// µ(d_kc|c_u), with Diagnose's weights: the last entry wins when a
// distribution lists a decision twice, and a decision off the support
// is 0. It fails, as DM does, when some context's distribution is
// invalid. The rows are tb's; they are valid until Release.
func (tb *Evaluation[C, D]) Probs() ([]float64, error) { return tb.probLast, tb.invalidErr() }

// extend brings the table up to v's dictionaries: columns for new
// decisions, then rows for contexts first seen since the last call. v
// must extend the view the table was last extended with (a later
// ViewBuilder snapshot), as it does for a StreamEval. A fit on a
// snapshot of v's builder is read by code, since codes never change;
// a model only if it knows no decision v lacks, because fillModel
// reads an entry whose decision v lacks as the default.
func (tb *Evaluation[C, D]) extend(v *TraceView[C, D]) {
	tb.fast, _ = tb.model.(*ViewTableModel[C, D])
	if tb.fast != nil && (tb.fast.src != v.src || tb.fast.k > len(v.decisions)) {
		tb.fast = nil
	}
	if k := len(v.decisions); k > tb.k {
		old := tb.k
		tb.k = k
		tb.probFirst = restride(tb.probFirst, tb.numCtx, old, k)
		tb.probLast = restride(tb.probLast, tb.numCtx, old, k)
		if tb.model != nil {
			tb.pred = restride(tb.pred, tb.numCtx, old, k)
		}
		for j, c := range tb.entCode {
			if c >= 0 {
				continue
			}
			if kc, ok := v.decIndex[tb.entDec[j]]; ok {
				tb.entCode[j] = kc
			}
		}
		for u := 0; u < tb.numCtx; u++ {
			tb.fillProbs(u, old)
			if tb.model != nil {
				tb.fillModel(v, u, old)
			}
		}
	}
	fit, _ := tb.policy.(*bestObserved[C, D])
	if fit != nil && fit.src != v.src {
		fit = nil
	}
	for u := tb.numCtx; u < len(v.contexts); u++ {
		var dist []Weighted[D]
		if fit != nil {
			dist = fit.distributionAt(u)
		} else {
			dist = tb.policy.Distribution(v.contexts[u])
		}
		err := ValidateDistribution(dist)
		if err != nil && tb.bad < 0 {
			tb.bad, tb.badErr = int(v.ctxFirst[u]), err
		}
		//lint:allow hotalloc per unique context, into capacity kept across uses
		tb.valErr = append(tb.valErr, err)
		for _, w := range dist {
			code := int32(-1)
			if kc, ok := v.decIndex[w.Decision]; ok {
				code = kc
			}
			//lint:allow hotalloc per distribution entry, into capacity kept across uses
			tb.entProb = append(tb.entProb, w.Prob)
			//lint:allow hotalloc per distribution entry, into capacity kept across uses
			tb.entCode = append(tb.entCode, code)
			//lint:allow hotalloc per distribution entry; the decisions a model is asked about
			tb.entDec = append(tb.entDec, w.Decision)
		}
		//lint:allow hotalloc per unique context, into capacity kept across uses
		tb.off = append(tb.off, int32(len(tb.entProb)))
		tb.numCtx++
		tb.probFirst = resize(tb.probFirst, tb.numCtx*tb.k)
		tb.probLast = resize(tb.probLast, tb.numCtx*tb.k)
		tb.argmax = resize(tb.argmax, tb.numCtx)
		tb.fillProbs(u, 0)
		if tb.model != nil {
			tb.pred = resize(tb.pred, tb.numCtx*tb.k)
			tb.dm = resize(tb.dm, tb.numCtx)
			tb.fillModel(v, u, 0)
		}
	}
}

// fillProbs fills context u's probabilities for decision codes
// [k0, k) and refreshes its argmax.
func (t *tables) fillProbs(u, k0 int) {
	row, lo, hi := u*t.k, int(t.off[u]), int(t.off[u+1])
	for kc := k0; kc < t.k; kc++ {
		t.probFirst[row+kc], t.probLast[row+kc] = 0, 0
	}
	for j := lo; j < hi; j++ {
		if c := int(t.entCode[j]); c >= k0 {
			t.probLast[row+c] = t.entProb[j]
		}
	}
	for j := hi - 1; j >= lo; j-- {
		if c := int(t.entCode[j]); c >= k0 {
			t.probFirst[row+c] = t.entProb[j]
		}
	}
	t.argmax[u] = -1
	if hi > lo {
		best := lo
		for j := lo + 1; j < hi; j++ {
			if t.entProb[j] > t.entProb[best] {
				best = j
			}
		}
		t.argmax[u] = t.entCode[best]
	}
}

// fillModel fills context u's predictions for decision codes [k0, k),
// and its DM value when the row is new (k0 == 0). The DM sum runs over
// the distribution's nonzero entries in order, as a per-record loop
// does.
func (tb *Evaluation[C, D]) fillModel(v *TraceView[C, D], u, k0 int) {
	row, c, m := u*tb.k, v.contexts[u], tb.fast
	for kc := k0; kc < tb.k; kc++ {
		if m != nil {
			tb.pred[row+kc] = m.at(u, kc)
		} else {
			tb.pred[row+kc] = tb.model.Predict(c, v.decisions[kc])
		}
	}
	if k0 > 0 {
		return
	}
	s := 0.0
	for j := tb.off[u]; j < tb.off[u+1]; j++ {
		p := tb.entProb[j]
		if p == 0 {
			continue
		}
		switch {
		case m == nil:
			s += p * tb.model.Predict(c, tb.entDec[j])
		case tb.entCode[j] < 0:
			s += p * m.def
		default:
			s += p * m.at(u, int(tb.entCode[j]))
		}
	}
	tb.dm[u] = s
}

// ViewTableModel is the columnar counterpart of TableModel: per-
// (context, decision) mean rewards stored densely over a view's
// dictionary codes, with the fit trace's mean reward as the fallback
// for unseen pairs. FitTableView builds one; the view estimators
// recognize a model fit on a snapshot of the same builder and bypass
// Predict's map lookups entirely. It keeps the view's builder, for its
// context index, and pins no column the builder has since outgrown.
//
// It is bit-identical to FitTable with any key function that is
// injective per (interned context, decision) pair — e.g. drevald's
// c.Key()+"|"+d — because both accumulate per-cell sums in record
// order and share the same default.
type ViewTableModel[C any, D comparable] struct {
	src      *ViewBuilder[C, D]
	decIndex map[D]int32
	u, k     int
	vals     []float64
	counts   []int32
	def      float64
}

// Predict implements RewardModel.
func (m *ViewTableModel[C, D]) Predict(c C, d D) float64 {
	u, ok := m.src.lookup(c, int32(m.u))
	if !ok {
		return m.def
	}
	kc, ok := m.decIndex[d]
	if !ok {
		return m.def
	}
	return m.at(int(u), int(kc))
}

// at is Predict by code: the default for a cell the fit never logged,
// or one interned after the fit (off its u×k grid).
func (m *ViewTableModel[C, D]) at(u, kc int) float64 {
	if u >= m.u || kc >= m.k || m.counts[u*m.k+kc] == 0 {
		return m.def
	}
	return m.vals[u*m.k+kc]
}

// Default returns the fallback prediction (the fit records' mean
// reward).
func (m *ViewTableModel[C, D]) Default() float64 { return m.def }

// FitTableView fits the per-(context, decision) mean-reward model over
// the view's cells — the columnar FitTable.
func FitTableView[C any, D comparable](v *TraceView[C, D]) *ViewTableModel[C, D] {
	// Background never cancels, so the error branch is unreachable.
	m, _ := FitTableViewCtx(context.Background(), v)
	return m
}

// FitTableViewCtx is FitTableView with cooperative cancellation: ctx
// is checked once per chunk of records.
func FitTableViewCtx[C any, D comparable](ctx context.Context, v *TraceView[C, D]) (*ViewTableModel[C, D], error) {
	numCtx, k := len(v.contexts), len(v.decisions)
	m := &ViewTableModel[C, D]{
		src:      v.src,
		decIndex: v.decIndex,
		u:        numCtx,
		k:        k,
		vals:     make([]float64, numCtx*k),
		counts:   make([]int32, numCtx*k),
	}
	total := 0.0
	for i := range v.rewards {
		if i%estimatorGrain == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		cell := int(v.ctxCodes[i])*k + int(v.decCodes[i])
		m.vals[cell] += v.rewards[i]
		m.counts[cell]++
		total += v.rewards[i]
	}
	for cell, c := range m.counts {
		if c > 0 {
			m.vals[cell] /= float64(c)
		}
	}
	if n := len(v.rewards); n > 0 {
		m.def = total / float64(n)
	}
	return m, nil
}
