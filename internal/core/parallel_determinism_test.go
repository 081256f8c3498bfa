package core

import (
	"context"
	"strings"
	"testing"

	"drnet/internal/mathx"
	"drnet/internal/parallel"
)

// workerCounts are the counts the acceptance criteria require the
// determinism tests to sweep.
var workerCounts = []int{1, 2, 8}

// withParallelism runs fn with the shared worker pool at the given
// width, then restores the default.
func withParallelism(t *testing.T, workers int, fn func()) {
	t.Helper()
	parallel.SetDefaultWorkers(workers)
	defer parallel.SetDefaultWorkers(0)
	fn()
}

func determinismTrace(n int) (Trace[float64, int], Policy[float64, int], RewardModel[float64, int]) {
	rng := mathx.NewRNG(1234)
	old := EpsilonGreedyPolicy[float64, int]{
		Base:      func(float64) int { return 0 },
		Decisions: []int{0, 1, 2},
		Epsilon:   0.3,
	}
	ctxs := make([]float64, n)
	for i := range ctxs {
		ctxs[i] = rng.Float64()
	}
	trueReward := func(x float64, d int) float64 { return x * float64(d+1) }
	tr := CollectTrace(ctxs, old, func(x float64, d int) float64 {
		return trueReward(x, d) + rng.Normal(0, 0.2)
	}, rng)
	np := EpsilonGreedyPolicy[float64, int]{
		Base:      func(float64) int { return 2 },
		Decisions: []int{0, 1, 2},
		Epsilon:   0.1,
	}
	// A slightly biased model so DR's correction term is non-trivial.
	model := RewardFunc[float64, int](func(x float64, d int) float64 {
		return trueReward(x, d) + 0.15
	})
	return tr, np, model
}

// TestEstimatorsParallelBitIdentical asserts DM, IPS and DR return
// exactly the same Estimate — every float field bit for bit — at every
// pool width: the fold is sequential, so the pool must not leak in.
func TestEstimatorsParallelBitIdentical(t *testing.T) {
	tr, np, model := determinismTrace(5000)
	v := mustView(t, tr)
	variants := map[string]func() (Estimate, error){
		"DM":       func() (Estimate, error) { return DirectMethodView(v, np, model) },
		"IPS":      func() (Estimate, error) { return IPSView(v, np, IPSOptions{}) },
		"IPS clip": func() (Estimate, error) { return IPSView(v, np, IPSOptions{Clip: 3}) },
		"SNIPS":    func() (Estimate, error) { return IPSView(v, np, IPSOptions{SelfNormalize: true}) },
		"DR":       func() (Estimate, error) { return DoublyRobustView(v, np, model, DROptions{}) },
		"DR clip+norm": func() (Estimate, error) {
			return DoublyRobustView(v, np, model, DROptions{Clip: 3, SelfNormalize: true})
		},
	}
	for name, run := range variants {
		var want Estimate
		for _, w := range workerCounts {
			withParallelism(t, w, func() {
				got, err := run()
				if err != nil {
					t.Fatalf("%s workers=%d: %v", name, w, err)
				}
				if w == workerCounts[0] {
					want = got
				}
				if got != want {
					t.Fatalf("%s workers=%d: %+v != %+v", name, w, got, want)
				}
			})
		}
	}
}

// TestEstimatorErrorsDeterministicParallel asserts DM and DR report the
// same first-failing-record error at every pool width.
func TestEstimatorErrorsDeterministicParallel(t *testing.T) {
	tr, _, model := determinismTrace(2000)
	v := mustView(t, tr)
	// A policy whose distribution is invalid for contexts in the upper
	// half of [0,1]; the first offending record index is fixed by the
	// trace, not by scheduling.
	bad := FuncPolicy[float64, int](func(x float64) []Weighted[int] {
		if x > 0.5 {
			return []Weighted[int]{{Decision: 0, Prob: 0.7}, {Decision: 1, Prob: 0.7}}
		}
		return []Weighted[int]{{Decision: 0, Prob: 1}, {Decision: 1, Prob: 0}, {Decision: 2, Prob: 0}}
	})
	var want string
	for _, w := range workerCounts {
		withParallelism(t, w, func() {
			_, err := DoublyRobustView(v, bad, model, DROptions{})
			if err == nil || !strings.HasPrefix(err.Error(), "record ") {
				t.Fatalf("workers=%d: DR error %v", w, err)
			}
			if want == "" {
				want = err.Error()
			}
			if err.Error() != want {
				t.Fatalf("workers=%d: DR error %v, want %s", w, err, want)
			}
			if _, err := DirectMethodView(v, bad, model); err == nil || err.Error() != want {
				t.Fatalf("workers=%d: DM error %v, want %s", w, err, want)
			}
		})
	}
}

// TestBootstrapSeededBitIdentical asserts the sharded bootstrap CI is a
// pure function of the seed: identical for worker counts 1, 2 and 8,
// and equal to the textbook refit-DR bootstrap.
func TestBootstrapSeededBitIdentical(t *testing.T) {
	tr, np, _ := quantizedTrace(400)
	v := mustView(t, tr)
	want := refitBootstrap(tr, np, DROptions{}, 99, 150, 0.95)
	if want.Lo >= want.Hi {
		t.Fatalf("degenerate interval %+v", want)
	}
	for _, w := range workerCounts {
		withParallelism(t, w, func() {
			got, err := BootstrapDRViewSeeded(v, np, DROptions{}, 99, 150, 0.95)
			if err != nil || got != want {
				t.Fatalf("workers=%d: %+v (%v) != %+v", w, got, err, want)
			}
		})
	}
}

// TestBootstrapSeededValidation covers the bootstrap's input checks:
// an empty view, a bad level, and a policy every resample rejects.
func TestBootstrapSeededValidation(t *testing.T) {
	tr, np, _ := determinismTrace(50)
	v := mustView(t, tr)
	if _, err := BootstrapDRViewSeeded(mustView(t, Trace[float64, int]{}), np, DROptions{}, 1, 10, 0.95); err == nil {
		t.Fatal("empty trace accepted")
	}
	if _, err := BootstrapDRViewSeeded(v, np, DROptions{}, 1, 10, 1.5); err == nil {
		t.Fatal("bad level accepted")
	}
	alwaysFail := FuncPolicy[float64, int](func(float64) []Weighted[int] { return nil })
	if _, err := BootstrapDRViewSeeded(v, alwaysFail, DROptions{}, 1, 10, 0.95); err == nil {
		t.Fatal("all-failing policy accepted")
	}
	// b <= 0 selects the default 200 resamples.
	_, stats, err := BootstrapDRViewSeededStatsCtx(context.Background(), v, np, DROptions{}, 1, 0, 0.95)
	if err != nil || stats.Resamples != 200 {
		t.Fatalf("default resamples: %+v, %v", stats, err)
	}
}

// TestBootstrapSeededStatsSkipped asserts resamples that draw a context
// with an invalid distribution are (a) counted, (b) excluded from the
// interval, and (c) as deterministic as the interval itself —
// identical at worker counts 1, 2 and 8.
func TestBootstrapSeededStatsSkipped(t *testing.T) {
	tr, np, _ := determinismTrace(50)
	v := mustView(t, tr)
	// One context (one record) is invalid, so the resamples that draw
	// it fail.
	rare := tr[0].Context
	flaky := FuncPolicy[float64, int](func(x float64) []Weighted[int] {
		if x == rare {
			return nil
		}
		return np.Distribution(x)
	})
	var wantIv Interval
	var want BootstrapStats
	for _, w := range workerCounts {
		withParallelism(t, w, func() {
			iv, stats, err := BootstrapDRViewSeededStatsCtx(context.Background(), v, flaky, DROptions{}, 7, 120, 0.9)
			if err != nil {
				t.Fatal(err)
			}
			if w == workerCounts[0] {
				wantIv, want = iv, stats
			}
			if iv != wantIv || stats != want {
				t.Fatalf("workers=%d: (%+v, %+v) != (%+v, %+v)", w, iv, stats, wantIv, want)
			}
		})
	}
	if want.Resamples != 120 || want.Skipped == 0 || want.Skipped >= want.Resamples {
		t.Fatalf("implausible stats %+v (the rare context should fail some but not all resamples)", want)
	}
	if iv, err := BootstrapDRViewSeeded(v, flaky, DROptions{}, 7, 120, 0.9); err != nil || iv != wantIv {
		t.Fatalf("BootstrapDRViewSeeded disagrees: %+v, %v", iv, err)
	}
}
