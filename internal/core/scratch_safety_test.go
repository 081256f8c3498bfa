package core

import (
	"sync"
	"testing"
)

// TestScratchNoCrossRequestContamination runs 32 concurrent evaluation
// streams, each over its own trace, and asserts every stream keeps
// producing its precomputed results while the others hammer the shared
// scratch pools. Run under -race this also proves the pooled buffers
// are never shared between in-flight evaluations.
func TestScratchNoCrossRequestContamination(t *testing.T) {
	const (
		streams = 32
		rounds  = 20
	)
	type fixture struct {
		v     *TraceView[float64, int]
		np    Policy[float64, int]
		model RewardModel[float64, int]
		dm    Estimate
		ips   Estimate
		dr    Estimate
		diag  Diagnostics
		iv    Interval
	}
	fixtures := make([]fixture, streams)
	for s := range fixtures {
		tr, np, model := determinismTrace(600 + 37*s)
		v, err := NewTraceView(tr)
		if err != nil {
			t.Fatalf("stream %d: NewTraceView: %v", s, err)
		}
		fx := fixture{v: v, np: np, model: model}
		if fx.dm, err = DirectMethodView(v, np, model); err != nil {
			t.Fatalf("stream %d: DM: %v", s, err)
		}
		if fx.ips, err = IPSView(v, np, IPSOptions{Clip: 4, SelfNormalize: true}); err != nil {
			t.Fatalf("stream %d: IPS: %v", s, err)
		}
		if fx.dr, err = DoublyRobustView(v, np, model, DROptions{Clip: 4}); err != nil {
			t.Fatalf("stream %d: DR: %v", s, err)
		}
		if fx.diag, err = DiagnoseView(v, np); err != nil {
			t.Fatalf("stream %d: Diagnose: %v", s, err)
		}
		if fx.iv, err = BootstrapDRViewSeeded(v, np, DROptions{Clip: 4}, int64(s), 10, 0.9); err != nil {
			t.Fatalf("stream %d: bootstrap: %v", s, err)
		}
		fixtures[s] = fx
	}
	var wg sync.WaitGroup
	errs := make(chan error, streams)
	for s := range fixtures {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			fx := &fixtures[s]
			for r := 0; r < rounds; r++ {
				if got, err := DirectMethodView(fx.v, fx.np, fx.model); err != nil || got != fx.dm {
					t.Errorf("stream %d round %d: DM %+v (err %v) != %+v", s, r, got, err, fx.dm)
					return
				}
				if got, err := IPSView(fx.v, fx.np, IPSOptions{Clip: 4, SelfNormalize: true}); err != nil || got != fx.ips {
					t.Errorf("stream %d round %d: IPS %+v (err %v) != %+v", s, r, got, err, fx.ips)
					return
				}
				if got, err := DoublyRobustView(fx.v, fx.np, fx.model, DROptions{Clip: 4}); err != nil || got != fx.dr {
					t.Errorf("stream %d round %d: DR %+v (err %v) != %+v", s, r, got, err, fx.dr)
					return
				}
				if got, err := DiagnoseView(fx.v, fx.np); err != nil || got != fx.diag {
					t.Errorf("stream %d round %d: Diagnose %+v (err %v) != %+v", s, r, got, err, fx.diag)
					return
				}
				if got, err := BootstrapDRViewSeeded(fx.v, fx.np, DROptions{Clip: 4}, int64(s), 10, 0.9); err != nil || got != fx.iv {
					t.Errorf("stream %d round %d: bootstrap %+v (err %v) != %+v", s, r, got, err, fx.iv)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	close(errs)
}

// TestEstimatorSteadyStateAllocs asserts the DM/IPS/DR fold over a warm
// view allocates at most a small constant per evaluation, never per
// record. The model is prefit so only the estimator itself is
// measured.
func TestEstimatorSteadyStateAllocs(t *testing.T) {
	const n = 2000
	tr, np, _ := quantizedTrace(n)
	v, err := NewTraceView(tr)
	if err != nil {
		t.Fatalf("NewTraceView: %v", err)
	}
	model := FitTableView(v)
	var sink Estimate
	warm := func(run func()) float64 {
		// Warm the pools before measuring so first-use growth is
		// excluded from the steady state.
		for i := 0; i < 3; i++ {
			run()
		}
		return testing.AllocsPerRun(20, run)
	}
	// Steady state allocates per UNIQUE context (each Distribution call
	// returns a fresh slice — inherent to the Policy interface), never
	// per record: budget = U + fixed table overhead, independent of n.
	budget := float64(v.NumContexts()) + 16
	cases := []struct {
		name   string
		budget float64
		run    func()
	}{
		{"DM", budget, func() { sink, _ = DirectMethodView(v, np, model) }},
		{"IPS", budget, func() { sink, _ = IPSView(v, np, IPSOptions{Clip: 4, SelfNormalize: true}) }},
		{"DR", budget, func() { sink, _ = DoublyRobustView(v, np, model, DROptions{Clip: 4, SelfNormalize: true}) }},
	}
	for _, c := range cases {
		if got := warm(c.run); got > c.budget {
			t.Errorf("%s: %.1f allocs per steady-state evaluation, budget %.0f", c.name, got, c.budget)
		}
	}
	_ = sink
}

// TestBootstrapSteadyStateAllocs bounds per-resample allocation of the
// packaged refit-DR bootstrap: the per-resample cost must be O(1)
// allocations (pooled index + sufficient-statistic buffers), not the
// O(n) record copy plus O(U·K) model maps of a per-resample FitTable.
func TestBootstrapSteadyStateAllocs(t *testing.T) {
	const (
		n = 2000
		b = 50
	)
	tr, np, _ := quantizedTrace(n)
	v, err := NewTraceView(tr)
	if err != nil {
		t.Fatalf("NewTraceView: %v", err)
	}
	run := func() {
		if _, err := BootstrapDRViewSeeded(v, np, DROptions{Clip: 4}, 17, b, 0.9); err != nil {
			t.Fatalf("bootstrap: %v", err)
		}
	}
	for i := 0; i < 3; i++ {
		run()
	}
	got := testing.AllocsPerRun(10, run)
	// Budget: fixed harness overhead (sharded RNG, draw collection,
	// quantile copies, worker bookkeeping) plus ~2 allocs per resample
	// for RNG shards — far from the ~75·n of the record-copy path.
	budget := float64(16*b + 200)
	if got > budget {
		t.Errorf("bootstrap: %.0f allocs per run (b=%d resamples), budget %.0f", got, b, budget)
	}
}
