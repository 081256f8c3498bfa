package core

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strconv"
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
// (drevald's registration flow), on a builder interning by value and
// on a keyed one (drevald's featurized contexts).
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
		for _, bc := range snapshotBuilders {
			for _, size := range []int{1, 7, 100} {
				for _, clip := range []float64{0, 3} {
					name := fmt.Sprintf("%s model, %s builder, size=%d clip=%g", mname, bc.name, size, clip)
					b := bc.new()
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
							t.Fatalf("%s at %d: %v", name, snap.Len(), err)
						}
						want, err := batchEstimates(snap, np, model, clip)
						if err != nil {
							t.Fatal(err)
						}
						if got != want {
							t.Fatalf("%s at %d:\nstream %+v\nbatch  %+v", name, snap.Len(), got, want)
						}
					}
					if v := b.Snapshot(); v.NumDecisions() != 4 || v.NumContexts() <= 8 {
						t.Fatalf("trace did not grow its dictionaries: %d decisions, %d contexts", v.NumDecisions(), v.NumContexts())
					}
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
// Both intern through the builder's dictionary step, but Append grows
// the columns record by record while NewTraceView writes them presized.
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
	// The builder's lookup must resolve every interned context.
	for u := 0; u < snap.NumContexts(); u++ {
		c := snap.contexts[u]
		if code, ok := snap.src.lookup(c, int32(snap.NumContexts())); !ok || int(code) != u {
			t.Fatalf("lookup(%v) = (%d,%v), want (%d,true)", c, code, ok, u)
		}
	}
}

// TestViewBuilderRejectedAppendKeepsLen: Append rejects a bad record
// with Trace.Validate's error at the same record index, and leaves the
// builder as it was. FuzzNewTraceView checks NewTraceView's rejections
// against Trace.Validate.
func TestViewBuilderRejectedAppendKeepsLen(t *testing.T) {
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
		b := NewViewBuilder[float64, int]()
		for i := 0; i < 2; i++ {
			if err := b.Append(good); err != nil {
				t.Fatalf("case %d: good Append: %v", ci, err)
			}
		}
		wantErr := Trace[float64, int]{good, good, bad}.Validate()
		if err := b.Append(bad); err == nil || wantErr == nil || err.Error() != wantErr.Error() {
			t.Fatalf("case %d: Append error %v, want Trace.Validate's %v", ci, err, wantErr)
		}
		if v := b.Snapshot(); v.Len() != 2 || v.NumContexts() != 1 || v.NumDecisions() != 1 {
			t.Fatalf("case %d: (%d records, %d contexts, %d decisions) after a rejected append, want (2, 1, 1)",
				ci, v.Len(), v.NumContexts(), v.NumDecisions())
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

// TestViewBuilderKeyedMatchesKeyedView: a keyed builder fed one Append
// per record reads, through a StreamEval, what the batch calls read
// over NewTraceViewKeyed's one-pass fill of the same trace — every
// field, bit for bit (drevald's featurized contexts).
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
	if err := se.Apply(b.Snapshot(), 0); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	got, err := se.Estimates()
	if err != nil {
		t.Fatalf("Estimates: %v", err)
	}
	v, err := NewTraceViewKeyed(tr, key)
	if err != nil {
		t.Fatalf("NewTraceViewKeyed: %v", err)
	}
	want, err := batchEstimates(v, np, model, 0)
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	if got != want {
		t.Fatalf("keyed:\nstream %+v\nbatch  %+v", got, want)
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
		if u, ok := snap.src.lookup(2, int32(snap.NumContexts())); !ok || u != 1 {
			t.Errorf("%s: snapshot lookup(2) = (%d, %v), want (1, true)", bc.name, u, ok)
		}
		if u, ok := snap.src.lookup(3, int32(snap.NumContexts())); ok {
			t.Errorf("%s: snapshot resolves context 3, interned after it, to code %d", bc.name, u)
		}
		later := b.Snapshot()
		if u, ok := later.src.lookup(3, int32(later.NumContexts())); !ok || u != 2 {
			t.Errorf("%s: later snapshot lookup(3) = (%d, %v), want (2, true)", bc.name, u, ok)
		}
		model := FitTableView(snap)
		if got := model.Predict(3, 0); got != model.Default() {
			t.Errorf("%s: model fit on the snapshot predicts %g for a later context, want its default %g", bc.name, got, model.Default())
		}
	}
}

// TestFitKeepsNoColumns: a best-observed policy and a table model fit
// on a snapshot keep the builder and their own per-cell tables, not the
// snapshot's columns, so once the builder outgrows those columns a
// registered stream policy pins none of them.
func TestFitKeepsNoColumns(t *testing.T) {
	b := NewViewBuilder[int, int]()
	grow := func(n int) {
		for i := b.Len(); i < n; i++ {
			if err := b.Append(Record[int, int]{Context: i % 1000, Decision: i % 3, Reward: float64(i % 7), Propensity: 0.5}); err != nil {
				t.Fatal(err)
			}
		}
	}
	liveHeap := func() int64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	// The snapshot is only fit's argument, so no variable here keeps it.
	fit := func(v *TraceView[int, int]) []any { return []any{FitBestObserved(v), FitTableView(v)} }

	grow(100000)
	fits := fit(b.Snapshot())
	grow(400000)
	with := liveHeap()
	clear(fits)
	without := liveHeap()
	runtime.KeepAlive(fits)
	runtime.KeepAlive(b)
	if kept := with - without; kept > 1<<19 {
		t.Errorf("two fits at 100,000 records keep %.2f MB alive after the builder grows to 400,000, want < 0.5 MB", float64(kept)/(1<<20))
	}
}

// TestLaterSnapshotKeysNoContext: a StreamEval whose policy and model
// were fit on an early snapshot folds a later snapshot of the same
// builder by context code, even when it brings new contexts and a new
// decision, and reads exactly what the by-value path reads. The other
// way round, DM and DR over the early snapshot with a policy and model
// fit on the later one, which knows a decision the early one lacks,
// also read exactly what the by-value path reads.
func TestLaterSnapshotKeysNoContext(t *testing.T) {
	keys := 0
	b := NewViewBuilderKeyed[int, int](func(c int) string { keys++; return strconv.Itoa(c) })
	grow := func(n, decisions int) *TraceView[int, int] {
		for i := b.Len(); i < n; i++ {
			d := i % decisions
			if err := b.Append(Record[int, int]{Context: i % 1000, Decision: d, Reward: float64(i%7) + float64(d), Propensity: 1 / float64(decisions)}); err != nil {
				t.Fatal(err)
			}
		}
		return b.Snapshot()
	}
	early := grow(500, 2)
	p, m := FitBestObserved(early), FitTableView(early)
	byCode := NewStreamEval(p, m, StreamOptions{Clip: 3})
	byValue := NewStreamEval(FuncPolicy[int, int](p.Distribution), RewardFunc[int, int](m.Predict), StreamOptions{Clip: 3})
	later := grow(5000, 3)
	if later.NumContexts() != 1000 || later.NumDecisions() != 3 {
		t.Fatalf("later snapshot has %d contexts and %d decisions, want 1000 and 3", later.NumContexts(), later.NumDecisions())
	}
	for _, snap := range []*TraceView[int, int]{early, later} {
		from := byCode.N()
		keys = 0
		if err := byCode.Apply(snap, from); err != nil {
			t.Fatal(err)
		}
		if keys != 0 {
			t.Errorf("Apply over a %d-record snapshot keyed %d contexts, want 0", snap.Len(), keys)
		}
		if err := byValue.Apply(snap, from); err != nil {
			t.Fatal(err)
		}
		if keys == 0 {
			t.Fatal("the by-value wrappers keyed no context: they did not take the by-value path")
		}
	}
	got, gotErr := byCode.Estimates()
	want, wantErr := byValue.Estimates()
	if gotErr != nil || wantErr != nil || got != want {
		t.Fatalf("by code %+v (%v)\nby value %+v (%v)", got, gotErr, want, wantErr)
	}

	pLater, mLater := FitBestObserved(later), FitTableView(later)
	pValue, mValue := FuncPolicy[int, int](pLater.Distribution), RewardFunc[int, int](mLater.Predict)
	if pLater.Distribution(7)[0].Decision != 2 {
		t.Fatal("the later policy does not choose the decision the early snapshot lacks")
	}
	dm, dmErr := DirectMethodView(early, pLater, mLater)
	dmWant, dmWantErr := DirectMethodView(early, pValue, mValue)
	if dmErr != nil || dmWantErr != nil || dm != dmWant {
		t.Errorf("DM over the early snapshot with a later fit: by code %+v (%v), by value %+v (%v)", dm, dmErr, dmWant, dmWantErr)
	}
	dr, drErr := DoublyRobustView(early, pLater, mLater, DROptions{Clip: 3})
	drWant, drWantErr := DoublyRobustView(early, pValue, mValue, DROptions{Clip: 3})
	if drErr != nil || drWantErr != nil || dr != drWant {
		t.Errorf("DR over the early snapshot with a later fit: by code %+v (%v), by value %+v (%v)", dr, drErr, drWant, drWantErr)
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
				if u, ok := snap.src.lookup(c, int32(snap.NumContexts())); ok && (int(u) >= snap.NumContexts() || int(u) != int(c)) {
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

// TestAppendRunMatchesAppend: a staged run appends exactly what Append
// would, record by record: the same codes, first records and
// dictionaries, on an empty builder (which adopts the run's columns)
// and on one already holding records. Two slots with one key share a
// code, and a slot carrying a code the builder assigned interns as that
// code. An invalid record, or a code the builder has not assigned,
// fails with Append's error and appends nothing.
func TestAppendRunMatchesAppend(t *testing.T) {
	key := func(c float64) string { return fmt.Sprint(c) }
	held := Trace[float64, int]{
		{Context: 1, Decision: 7, Reward: 0.5, Propensity: 0.5},
		{Context: 2, Decision: 8, Reward: 1, Propensity: 1},
	}
	// Slots 0 and 2 are one context under two spellings; slot 1, when
	// known, is held context 1 by its code.
	run := func(known bool) *Run[float64, int] {
		slot1 := RunContext[float64]{Context: 5, Key: "5", Code: -1}
		if known {
			slot1 = RunContext[float64]{Context: 1, Code: 0}
		}
		return &Run[float64, int]{
			Rewards:      []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6},
			Propensities: []float64{0.5, 0.5, 1, 0.25, 0.5, 0.5},
			CtxSlots:     []int32{0, 1, 2, 0, 3, 1},
			DecSlots:     []int32{0, 1, 0, 2, 1, 0},
			Contexts: []RunContext[float64]{
				{Context: 3, Key: "3", Code: -1}, slot1, {Context: 3, Key: "3", Code: -1}, {Context: 4, Key: "4", Code: -1},
			},
			Decisions: []int{9, 7, 10},
		}
	}
	builder := func(prefix Trace[float64, int]) *ViewBuilder[float64, int] {
		b := NewViewBuilderKeyed[float64, int](key)
		for _, rec := range prefix {
			if err := b.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		return b
	}
	for _, prefix := range []Trace[float64, int]{nil, held} {
		r := run(prefix != nil)
		want := builder(prefix)
		for i := range r.Rewards {
			rec := Record[float64, int]{
				Context:    r.Contexts[r.CtxSlots[i]].Context,
				Decision:   r.Decisions[r.DecSlots[i]],
				Reward:     r.Rewards[i],
				Propensity: r.Propensities[i],
			}
			if err := want.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		rewards := r.Rewards
		got := builder(prefix)
		if err := got.AppendRun(r); err != nil {
			t.Fatalf("%d held records: AppendRun: %v", len(prefix), err)
		}
		g, w := got.Snapshot(), want.Snapshot()
		g.src, w.src = nil, nil
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("%d held records: AppendRun built\n%+v\nAppend built\n%+v", len(prefix), g, w)
		}
		if prefix == nil && &g.rewards[0] != &rewards[0] {
			t.Fatal("an empty builder copied the run's columns instead of adopting them")
		}
	}

	bad := run(true)
	bad.Propensities[4] = 0
	appendErr := func() error {
		b := builder(held)
		for i := range bad.Rewards {
			c := bad.Contexts[bad.CtxSlots[i]]
			err := b.Append(Record[float64, int]{Context: c.Context, Decision: bad.Decisions[bad.DecSlots[i]], Reward: bad.Rewards[i], Propensity: bad.Propensities[i]})
			if err != nil {
				return err
			}
		}
		return nil
	}()
	if appendErr == nil {
		t.Fatal("Append accepted a record with propensity 0")
	}
	unassigned := run(true)
	unassigned.Contexts[1].Code = 2
	for _, c := range []struct {
		r    *Run[float64, int]
		want string
	}{
		{bad, appendErr.Error()},
		{unassigned, "core: context code 2 not interned (2 contexts)"},
	} {
		b := builder(held)
		if err := b.AppendRun(c.r); err == nil || err.Error() != c.want {
			t.Fatalf("AppendRun error %v, want %q", err, c.want)
		}
		if v := b.Snapshot(); v.Len() != 2 || v.NumContexts() != 2 || v.NumDecisions() != 2 {
			t.Fatalf("(%d records, %d contexts, %d decisions) after a rejected run, want (2, 2, 2)", v.Len(), v.NumContexts(), v.NumDecisions())
		}
	}
}
