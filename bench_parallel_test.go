// Sequential-vs-parallel benchmark pairs for the internal/parallel
// engine. Each pair runs the identical workload with the worker pool
// pinned to 1 (the sequential baseline) and at GOMAXPROCS; on a
// machine with >=4 cores the parallel variant of the bootstrap and
// Monte Carlo benches should run >=2x faster. The estimator kernels
// themselves fold sequentially. Results are bit-identical
// between the members of every pair — that is the engine's contract,
// enforced by the determinism tests in internal/core and
// internal/experiments.
package drnet_test

import (
	"testing"

	"drnet/internal/core"
	"drnet/internal/experiments"
	"drnet/internal/parallel"
)

// sequentially pins the worker pool to one worker for the duration of
// the benchmark; concurrently restores the GOMAXPROCS default.
func sequentially(b *testing.B) {
	b.Helper()
	parallel.SetDefaultWorkers(1)
	b.Cleanup(func() { parallel.SetDefaultWorkers(0) })
}

func concurrently(b *testing.B) {
	b.Helper()
	parallel.SetDefaultWorkers(0)
}

// benchBootstrap runs drevald's per-request bootstrap — 200 resamples
// of the refit DR estimator — over a 5k-record trace.
func benchBootstrap(b *testing.B) {
	v, np, _ := banditView(b, 5000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ci, err := core.BootstrapDRViewSeeded(v, np, core.DROptions{}, 42, 200, 0.95)
		if err != nil {
			b.Fatal(err)
		}
		if ci.Lo >= ci.Hi {
			b.Fatalf("degenerate interval %+v", ci)
		}
	}
}

func BenchmarkBootstrapSequential(b *testing.B) { sequentially(b); benchBootstrap(b) }
func BenchmarkBootstrapParallel(b *testing.B)   { concurrently(b); benchBootstrap(b) }

// benchFigure7bRuns exercises the Monte Carlo replication loop that
// cmd/experiments parallelizes across the worker pool.
func benchFigure7bRuns(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure7b(benchRuns, 3, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure7bRunsSequential(b *testing.B) { sequentially(b); benchFigure7bRuns(b) }
func BenchmarkFigure7bRunsParallel(b *testing.B)   { concurrently(b); benchFigure7bRuns(b) }
