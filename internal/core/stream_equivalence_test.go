package core

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"drnet/internal/mathx"
)

// A StreamEval runs the batch estimators' fold over each new batch, so
// after every Apply its reading equals the batch *View calls over the
// same prefix bit for bit — whatever the batch sizes, and while new
// contexts and decisions keep appearing.

// batchEstimates is what a StreamEval must read over v: the batch
// calls over the same records.
func batchEstimates[C any, D comparable](v *TraceView[C, D], np Policy[C, D], model RewardModel[C, D], clip float64) (StreamEstimates, error) {
	var out StreamEstimates
	var err error
	if out.IPS, err = IPSView(v, np, IPSOptions{Clip: clip}); err != nil {
		return out, err
	}
	if out.SNIPS, err = IPSView(v, np, IPSOptions{Clip: clip, SelfNormalize: true}); err != nil {
		return out, err
	}
	if out.Diagnostics, err = DiagnoseView(v, np); err != nil {
		return out, err
	}
	if out.DM, err = DirectMethodView(v, np, model); err != nil {
		return out, err
	}
	if out.DR, err = DoublyRobustView(v, np, model, DROptions{Clip: clip}); err != nil {
		return out, err
	}
	out.SNDR, err = DoublyRobustView(v, np, model, DROptions{Clip: clip, SelfNormalize: true})
	return out, err
}

// growingTrace logs decisions {0, 1} over contexts in [0, 1) for its
// first half, then decisions {0, 1, 2, 3} over contexts in [0, 2): new
// contexts and new decisions arrive mid-stream. The target policy
// favours decision 3, which the first half never logs.
func growingTrace(n int) (Trace[float64, int], Policy[float64, int], RewardModel[float64, int]) {
	rng := mathx.NewRNG(77)
	reward := func(x float64, d int) float64 { return x*float64(d+1) + 0.1*float64(d) }
	var tr Trace[float64, int]
	for half, decisions := range [][]int{{0, 1}, {0, 1, 2, 3}} {
		old := EpsilonGreedyPolicy[float64, int]{Base: func(float64) int { return 0 }, Decisions: decisions, Epsilon: 0.5}
		ctxs := make([]float64, n/2)
		for i := range ctxs {
			ctxs[i] = float64(rng.Intn(8*(half+1))) / 8
		}
		tr = append(tr, CollectTrace(ctxs, old, func(x float64, d int) float64 { return reward(x, d) + rng.Normal(0, 0.2) }, rng)...)
	}
	np := EpsilonGreedyPolicy[float64, int]{Base: func(float64) int { return 3 }, Decisions: []int{0, 1, 2, 3}, Epsilon: 0.2}
	return tr, np, RewardFunc[float64, int](func(x float64, d int) float64 { return reward(x, d) - 0.1 })
}

// TestStreamEvalMatchesBatchEstimators feeds Apply calls of 1, 7 and
// 100 records and compares every reading with the batch calls over the
// same prefix — every field, StdErr and SN-DR included, bit for bit —
// for a pure model and a table model frozen on an early prefix
// (drevald's registration flow).
func TestStreamEvalMatchesBatchEstimators(t *testing.T) {
	const n = 600
	tr, np, pure := growingTrace(n)
	early := NewViewBuilder[float64, int]()
	for _, rec := range tr[:n/4] {
		if err := early.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	models := map[string]RewardModel[float64, int]{"pure": pure, "table": FitTableView(early.Snapshot())}
	for mname, model := range models {
		for _, size := range []int{1, 7, 100} {
			for _, clip := range []float64{0, 3} {
				b := NewViewBuilder[float64, int]()
				se := NewStreamEval(np, model, StreamOptions{Clip: clip})
				for from := 0; from < n; from += size {
					for _, rec := range tr[from:min(from+size, n)] {
						if err := b.Append(rec); err != nil {
							t.Fatal(err)
						}
					}
					snap := b.Snapshot()
					if err := se.Apply(snap, from); err != nil {
						t.Fatal(err)
					}
					got, err := se.Estimates()
					if err != nil {
						t.Fatalf("%s size=%d clip=%g at %d: %v", mname, size, clip, snap.Len(), err)
					}
					want, err := batchEstimates(snap, np, model, clip)
					if err != nil {
						t.Fatal(err)
					}
					if got != want {
						t.Fatalf("%s size=%d clip=%g at %d:\nstream %+v\nbatch  %+v", mname, size, clip, snap.Len(), got, want)
					}
				}
				if v := b.Snapshot(); v.NumDecisions() != 4 || v.NumContexts() <= 8 {
					t.Fatalf("trace did not grow its dictionaries: %d decisions, %d contexts", v.NumDecisions(), v.NumContexts())
				}
			}
		}
	}
}

// foldStream pushes tr through a ViewBuilder in batches ending at the
// cut points and folds each into fresh StreamEvals (unclipped, clip 3).
func foldStream(t *testing.T, tr Trace[float64, int], np Policy[float64, int], model RewardModel[float64, int], cuts []int) (*StreamEval[float64, int], *StreamEval[float64, int]) {
	t.Helper()
	b := NewViewBuilder[float64, int]()
	se := NewStreamEval(np, model, StreamOptions{})
	seClip := NewStreamEval(np, model, StreamOptions{Clip: 3})
	prev := 0
	for _, cut := range cuts {
		for _, rec := range tr[prev:cut] {
			if err := b.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		snap := b.Snapshot()
		if err := se.Apply(snap, prev); err != nil {
			t.Fatal(err)
		}
		if err := seClip.Apply(snap, prev); err != nil {
			t.Fatal(err)
		}
		prev = cut
	}
	return se, seClip
}

// everyK cuts n records into batches of k.
func everyK(n, k int) []int {
	var out []int
	for at := k; at < n; at += k {
		out = append(out, at)
	}
	return append(out, n)
}

// TestStreamEvalReplayBitExact: accumulators fed the same records
// under different batch schedules end bit-identical in every field —
// the property WAL replay relies on.
func TestStreamEvalReplayBitExact(t *testing.T) {
	const n = 3000
	tr, np, model := quantizedTrace(n)
	ref, refClip := foldStream(t, tr, np, model, []int{n})
	want, err := ref.Estimates()
	if err != nil {
		t.Fatal(err)
	}
	wantClip, err := refClip.Estimates()
	if err != nil {
		t.Fatal(err)
	}
	for _, cuts := range [][]int{{n / 2, n}, everyK(n, 1), everyK(n, 137)} {
		se, seClip := foldStream(t, tr, np, model, cuts)
		got, err := se.Estimates()
		if err != nil {
			t.Fatal(err)
		}
		gotClip, err := seClip.Estimates()
		if err != nil {
			t.Fatal(err)
		}
		if got != want || gotClip != wantClip {
			t.Fatalf("%d batches: %+v / %+v != %+v / %+v", len(cuts), got, gotClip, want, wantClip)
		}
	}
}

// TestViewBuilderSnapshotEqualsBatchView: the builder's final snapshot
// must be indistinguishable from NewTraceView over the same records.
func TestViewBuilderSnapshotEqualsBatchView(t *testing.T) {
	const n = 2000
	tr, _, _ := quantizedTrace(n)
	b := NewViewBuilder[float64, int]()
	for i, rec := range tr {
		if err := b.Append(rec); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
	}
	snap := b.Snapshot()
	want, err := NewTraceView(tr)
	if err != nil {
		t.Fatalf("NewTraceView: %v", err)
	}
	if snap.Len() != want.Len() || snap.NumContexts() != want.NumContexts() || snap.NumDecisions() != want.NumDecisions() {
		t.Fatalf("shape mismatch: (%d,%d,%d) != (%d,%d,%d)",
			snap.Len(), snap.NumContexts(), snap.NumDecisions(),
			want.Len(), want.NumContexts(), want.NumDecisions())
	}
	for i := 0; i < n; i++ {
		if snap.At(i) != want.At(i) {
			t.Fatalf("record %d: %+v != %+v", i, snap.At(i), want.At(i))
		}
	}
	// The lookup closure must resolve every interned context.
	for u := 0; u < snap.NumContexts(); u++ {
		c := snap.contexts[u]
		if code, ok := snap.lookup(c); !ok || int(code) != u {
			t.Fatalf("lookup(%v) = (%d,%v), want (%d,true)", c, code, ok, u)
		}
	}
}

// TestViewBuilderValidationMatchesBuildView: Append's rejection text is
// byte-identical to buildView's, at the same record index.
func TestViewBuilderValidationMatchesBuildView(t *testing.T) {
	good := Record[float64, int]{Context: 0.5, Decision: 1, Reward: 1, Propensity: 0.5}
	cases := []Record[float64, int]{
		{Context: 0.1, Decision: 0, Reward: 1, Propensity: 0},
		{Context: 0.1, Decision: 0, Reward: 1, Propensity: -0.2},
		{Context: 0.1, Decision: 0, Reward: 1, Propensity: 1.5},
		{Context: 0.1, Decision: 0, Reward: 1, Propensity: math.NaN()},
		{Context: 0.1, Decision: 0, Reward: math.NaN(), Propensity: 0.5},
		{Context: 0.1, Decision: 0, Reward: math.Inf(1), Propensity: 0.5},
		{Context: 0.1, Decision: 0, Reward: math.Inf(-1), Propensity: 0.5},
	}
	for ci, bad := range cases {
		// Two good records first, so the failing index is non-zero.
		tr := Trace[float64, int]{good, good, bad}
		_, wantErr := NewTraceView(tr)
		if wantErr == nil {
			t.Fatalf("case %d: batch accepted bad record", ci)
		}
		b := NewViewBuilder[float64, int]()
		for i := 0; i < 2; i++ {
			if err := b.Append(good); err != nil {
				t.Fatalf("case %d: good Append: %v", ci, err)
			}
		}
		err := b.Append(bad)
		if err == nil {
			t.Fatalf("case %d: builder accepted bad record", ci)
		}
		if err.Error() != wantErr.Error() {
			t.Fatalf("case %d: %q != batch %q", ci, err.Error(), wantErr.Error())
		}
		// Nothing appended: the builder still has 2 records.
		if b.Len() != 2 {
			t.Fatalf("case %d: Len %d after rejected append", ci, b.Len())
		}
	}
}

// badDistPolicy returns an invalid distribution for one context value.
type badDistPolicy struct{ bad float64 }

func (p badDistPolicy) Distribution(c float64) []Weighted[int] {
	if c == p.bad {
		return []Weighted[int]{{Decision: 0, Prob: 0.4}} // sums to 0.4
	}
	return []Weighted[int]{{Decision: 0, Prob: 0.5}, {Decision: 1, Prob: 0.5}}
}

// TestStreamEvalInvalidDistributionMatchesBatch: DM/DR surface the
// batch estimators' exact error; IPS and Diagnose stay available.
func TestStreamEvalInvalidDistributionMatchesBatch(t *testing.T) {
	tr := Trace[float64, int]{
		{Context: 0.1, Decision: 0, Reward: 1, Propensity: 0.5},
		{Context: 0.2, Decision: 1, Reward: 0, Propensity: 0.5},
		{Context: 0.3, Decision: 0, Reward: 1, Propensity: 0.5}, // the bad context, record 2
		{Context: 0.1, Decision: 1, Reward: 0, Propensity: 0.5},
	}
	np := badDistPolicy{bad: 0.3}
	model := RewardFunc[float64, int](func(c float64, d int) float64 { return c * float64(d) })

	v, err := NewTraceView(tr)
	if err != nil {
		t.Fatalf("NewTraceView: %v", err)
	}
	_, wantErr := DirectMethodView(v, np, model)
	if wantErr == nil {
		t.Fatal("batch DM accepted invalid distribution")
	}
	wantIPS, err := IPSView(v, np, IPSOptions{})
	if err != nil {
		t.Fatalf("batch IPS: %v", err)
	}
	wantDiag, err := DiagnoseView(v, np)
	if err != nil {
		t.Fatalf("batch Diagnose: %v", err)
	}

	b := NewViewBuilder[float64, int]()
	se := NewStreamEval[float64, int](np, model, StreamOptions{})
	for _, rec := range tr {
		if err := b.Append(rec); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := se.Apply(b.Snapshot(), 0); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	got, err := se.Estimates()
	if err == nil {
		t.Fatal("stream Estimates accepted invalid distribution")
	}
	if err.Error() != wantErr.Error() {
		t.Fatalf("error %q != batch %q", err.Error(), wantErr.Error())
	}
	// The partial result still carries IPS and Diagnostics.
	if got.IPS != wantIPS {
		t.Fatalf("IPS under invalid dist: %+v != %+v", got.IPS, wantIPS)
	}
	if got.Diagnostics != wantDiag {
		t.Fatalf("Diagnose under invalid dist: %+v != %+v", got.Diagnostics, wantDiag)
	}
}

func TestStreamEvalApplyContract(t *testing.T) {
	tr, np, model := quantizedTrace(10)
	b := NewViewBuilder[float64, int]()
	for _, rec := range tr {
		if err := b.Append(rec); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	se := NewStreamEval(np, model, StreamOptions{})
	snap := b.Snapshot()
	if err := se.Apply(snap, 3); err == nil {
		t.Fatal("Apply accepted a gap (from=3 on a fresh accumulator)")
	}
	if err := se.Apply(snap, 0); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if err := se.Apply(snap, 5); err == nil {
		t.Fatal("Apply accepted a rewind (from=5 after folding 10)")
	}
	// Re-applying the same frontier is a no-op.
	if err := se.Apply(snap, 10); err != nil {
		t.Fatalf("Apply at frontier: %v", err)
	}
	if se.N() != 10 {
		t.Fatalf("N = %d, want 10", se.N())
	}
	if _, err := NewStreamEval(np, model, StreamOptions{}).Estimates(); err != ErrEmptyTrace {
		t.Fatalf("empty Estimates error = %v, want ErrEmptyTrace", err)
	}
}

// TestViewBuilderConcurrentSnapshotAppend runs appends and snapshot
// readers concurrently under -race: snapshots must stay internally
// consistent (codes in range, estimators runnable) while the builder
// keeps growing.
func TestViewBuilderConcurrentSnapshotAppend(t *testing.T) {
	const n = 4000
	tr, np, model := quantizedTrace(n)
	b := NewViewBuilder[float64, int]()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, rec := range tr {
			if err := b.Append(rec); err != nil {
				t.Errorf("Append: %v", err)
				return
			}
		}
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				snap := b.Snapshot()
				if snap.Len() == 0 {
					continue
				}
				for i := 0; i < snap.Len(); i++ {
					if snap.ContextCode(i) >= snap.NumContexts() || snap.DecisionCode(i) >= snap.NumDecisions() {
						t.Errorf("snapshot code out of range at %d", i)
						return
					}
				}
				if _, err := DoublyRobustView(snap, np, model, DROptions{}); err != nil {
					t.Errorf("DR on snapshot: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	// After the dust settles the final snapshot matches the batch view.
	snap := b.Snapshot()
	want, err := NewTraceView(tr)
	if err != nil {
		t.Fatalf("NewTraceView: %v", err)
	}
	gotDR, err := DoublyRobustView(snap, np, model, DROptions{})
	if err != nil {
		t.Fatalf("DR on final snapshot: %v", err)
	}
	wantDR, err := DoublyRobustView(want, np, model, DROptions{})
	if err != nil {
		t.Fatalf("DR on batch view: %v", err)
	}
	if gotDR != wantDR {
		t.Fatalf("final snapshot DR %+v != batch %+v", gotDR, wantDR)
	}
}

// TestViewBuilderKeyedMatchesKeyedView mirrors the snapshot-equality
// check for the keyed constructor (drevald's featurized contexts).
func TestViewBuilderKeyedMatchesKeyedView(t *testing.T) {
	key := func(c float64) string { return fmt.Sprintf("%.3f", c) }
	const n = 1500
	tr, np, model := quantizedTrace(n)
	b := NewViewBuilderKeyed[float64, int](key)
	se := NewStreamEval(np, model, StreamOptions{})
	for i, rec := range tr {
		if err := b.Append(rec); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
	}
	snap := b.Snapshot()
	if err := se.Apply(snap, 0); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	want, err := NewTraceViewKeyed(tr, key)
	if err != nil {
		t.Fatalf("NewTraceViewKeyed: %v", err)
	}
	got, err := se.Estimates()
	if err != nil {
		t.Fatalf("Estimates: %v", err)
	}
	wantDR, err := DoublyRobustView(want, np, model, DROptions{})
	if err != nil {
		t.Fatalf("batch DR: %v", err)
	}
	if got.DR != wantDR {
		t.Fatalf("keyed DR: %+v != %+v", got.DR, wantDR)
	}
	wantDiag, err := DiagnoseView(want, np)
	if err != nil {
		t.Fatalf("batch Diagnose: %v", err)
	}
	if got.Diagnostics != wantDiag {
		t.Fatalf("keyed Diagnose: %+v != %+v", got.Diagnostics, wantDiag)
	}
}

// TestStreamEvalEstimatesAllocatesNothing pins the streamed read's O(1)
// claim: Estimates reads only the fold's running scalars, so it
// allocates nothing, after 500 records and after 50,000 alike.
func TestStreamEvalEstimatesAllocatesNothing(t *testing.T) {
	const n = 50000
	tr, np, model := growingTrace(n)
	b := NewViewBuilder[float64, int]()
	se := NewStreamEval(np, model, StreamOptions{Clip: 3})
	for _, upto := range []int{500, n} {
		from := se.N()
		for _, rec := range tr[from:upto] {
			if err := b.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := se.Apply(b.Snapshot(), from); err != nil {
			t.Fatal(err)
		}
		var err error
		allocs := testing.AllocsPerRun(100, func() { _, err = se.Estimates() })
		if err != nil {
			t.Fatalf("n=%d: %v", upto, err)
		}
		if allocs != 0 {
			t.Errorf("n=%d: Estimates allocates %.0f times per read, want 0", upto, allocs)
		}
	}
}

// snapshotBuilders are the two ViewBuilder constructors, one interning
// contexts by value and one by key.
var snapshotBuilders = []struct {
	name string
	new  func() *ViewBuilder[float64, int]
}{
	{"by value", NewViewBuilder[float64, int]},
	{"keyed", func() *ViewBuilder[float64, int] {
		return NewViewBuilderKeyed[float64, int](func(c float64) string { return fmt.Sprint(c) })
	}},
}

// TestViewBuilderSnapshotAllocsIndependentOfContexts pins the snapshot
// at O(decisions): it resolves contexts through the builder's own index
// instead of cloning it, so a snapshot allocates the same over 100
// distinct contexts as over 10,000.
func TestViewBuilderSnapshotAllocsIndependentOfContexts(t *testing.T) {
	for _, bc := range snapshotBuilders {
		allocs := func(contexts int) float64 {
			b := bc.new()
			for i := 0; i < contexts; i++ {
				if err := b.Append(Record[float64, int]{Context: float64(i), Decision: i % 3, Reward: 1, Propensity: 0.5}); err != nil {
					t.Fatal(err)
				}
			}
			return testing.AllocsPerRun(20, func() { _ = b.Snapshot() })
		}
		if small, large := allocs(100), allocs(10000); large != small {
			t.Errorf("%s: a snapshot allocates %.0f times over 10,000 contexts, %.0f over 100", bc.name, large, small)
		}
	}
}

// TestViewBuilderSnapshotLookupStopsAtItsContexts: a snapshot reads the
// builder's live index, but resolves only the codes it holds, so a
// context interned after it was taken stays absent to it, and a model
// fit on it predicts that context at its default.
func TestViewBuilderSnapshotLookupStopsAtItsContexts(t *testing.T) {
	for _, bc := range snapshotBuilders {
		b := bc.new()
		add := func(c float64) {
			if err := b.Append(Record[float64, int]{Context: c, Decision: 0, Reward: c, Propensity: 0.5}); err != nil {
				t.Fatal(err)
			}
		}
		add(1)
		add(2)
		snap := b.Snapshot()
		add(3)
		add(1)
		if u, ok := snap.lookup(2); !ok || u != 1 {
			t.Errorf("%s: snapshot lookup(2) = (%d, %v), want (1, true)", bc.name, u, ok)
		}
		if u, ok := snap.lookup(3); ok {
			t.Errorf("%s: snapshot resolves context 3, interned after it, to code %d", bc.name, u)
		}
		if u, ok := b.Snapshot().lookup(3); !ok || u != 2 {
			t.Errorf("%s: later snapshot lookup(3) = (%d, %v), want (2, true)", bc.name, u, ok)
		}
		model := FitTableView(snap)
		if got := model.Predict(3, 0); got != model.Default() {
			t.Errorf("%s: model fit on the snapshot predicts %g for a later context, want its default %g", bc.name, got, model.Default())
		}
	}
}

// TestViewBuilderKeyedLookupsDuringAppend: Known and a snapshot's
// lookup read the builder's live key index from other goroutines while
// Append grows it. Each sees a context only once it is interned, a
// snapshot only below its own context count, and every code matches
// the one the builder finally assigns.
func TestViewBuilderKeyedLookupsDuringAppend(t *testing.T) {
	const n = 3000
	key := func(c float64) string { return fmt.Sprint(c) }
	b := NewViewBuilderKeyed[float64, int](key)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			if err := b.Append(Record[float64, int]{Context: float64(i % 1000), Decision: i % 3, Reward: 1, Propensity: 0.5}); err != nil {
				t.Errorf("Append: %v", err)
				return
			}
		}
	}()
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				c := float64(j * 5 % 1000)
				if u, got, ok := b.Known([]byte(key(c))); ok && (got != c || int(u) != int(c)) {
					t.Errorf("Known(%v) = (%d, %v)", c, u, got)
					return
				}
				snap := b.Snapshot()
				if u, ok := snap.lookup(c); ok && (int(u) >= snap.NumContexts() || int(u) != int(c)) {
					t.Errorf("snapshot of %d contexts resolves %v to %d", snap.NumContexts(), c, u)
					return
				}
			}
		}()
	}
	wg.Wait()
	for c := 0; c < 1000; c++ {
		if u, got, ok := b.Known([]byte(key(float64(c)))); !ok || int(u) != c || got != float64(c) {
			t.Fatalf("Known(%d) = (%d, %v, %v) after the appends", c, u, got, ok)
		}
	}
}
