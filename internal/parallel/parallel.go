// Package parallel is the repository's evaluation engine: a bounded
// worker pool with deterministic chunking and a sharded RNG, so that
// every Monte Carlo loop, per-record estimator pass and bootstrap
// resample in this codebase produces bit-identical results at any
// worker count (GOMAXPROCS, -workers 1, -workers 8, ...).
//
// Determinism comes from two rules every helper here enforces:
//
//  1. Work is addressed by index, never by arrival order. Outputs are
//     written to index i of a pre-sized slice and reductions run
//     sequentially in index order after the parallel phase, so no
//     floating-point sum is ever reassociated.
//  2. Randomness is sharded by index, never drawn from a shared
//     stream. ShardedRNG derives an independent PCG stream per shard
//     from a root seed, so shard i sees the same variates no matter
//     which worker runs it.
package parallel

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// defaultWorkers holds the pool-wide worker count used when a call
// passes workers <= 0. Zero means "use GOMAXPROCS".
var defaultWorkers atomic.Int64

// SetDefaultWorkers sets the worker count used by callers that do not
// specify one (the estimators in internal/core, the experiment runners,
// drevald request handling). n <= 0 restores the default, GOMAXPROCS.
// It is safe for concurrent use.
func SetDefaultWorkers(n int) {
	if n < 0 {
		n = 0
	}
	defaultWorkers.Store(int64(n))
	poolWorkers.Set(float64(DefaultWorkers()))
}

// DefaultWorkers returns the currently configured default worker count
// (GOMAXPROCS when unset).
func DefaultWorkers() int {
	if n := int(defaultWorkers.Load()); n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// resolve maps a caller-supplied worker count to a concrete one.
func resolve(workers int) int {
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	return workers
}

// ForEachCtx partitions [0, n) into consecutive chunks of at most grain
// indices and runs fn(lo, hi) once per chunk on up to workers
// goroutines (workers <= 0 means DefaultWorkers; grain <= 0 means one
// chunk per worker share, minimum 1).
//
// fn must be index-pure: its effect for index i (typically writing
// element i of a shared output slice) may not depend on which chunk or
// worker executes it. Under that contract the output is bit-identical
// for every worker count, including 1.
//
// When any chunk fails, ForEachCtx returns the error of the
// lowest-indexed failing chunk. Because fn scans its chunk in order,
// that is exactly the error a sequential loop would have returned
// first. Chunks not yet claimed when a failure is observed are skipped.
//
// Cancellation is cooperative: once ctx ends, no new chunk is claimed —
// already-running chunks finish (fn is never interrupted mid-chunk), so
// cancellation takes effect within one task boundary. Chunks skipped
// because of cancellation are counted in the
// obs_pool_cancelled_chunks_total metric. When chunks were skipped and
// no chunk failed, ForEachCtx returns ctx.Err(); a dispatch whose
// chunks all completed before the cancellation was observed returns
// nil: the work is done.
func ForEachCtx(ctx context.Context, n, workers, grain int, fn func(lo, hi int) error) error {
	if n <= 0 {
		return nil
	}
	workers = resolve(workers)
	if grain <= 0 {
		grain = (n + workers - 1) / workers
		if grain < 1 {
			grain = 1
		}
	}
	chunks := (n + grain - 1) / grain
	if workers > chunks {
		workers = chunks
	}
	if err := ctx.Err(); err != nil {
		// The whole dispatch was cancelled before any chunk ran.
		poolCancelled.Add(uint64(chunks))
		return err
	}
	done := ctx.Done()
	if workers == 1 {
		// Plain loop: no goroutines, no pool overhead (beyond per-chunk
		// task accounting, which is two atomics and a clock read).
		for lo := 0; lo < n; lo += grain {
			if done != nil {
				select {
				case <-done:
					poolCancelled.Add(uint64((n - lo + grain - 1) / grain))
					return ctx.Err()
				default:
				}
			}
			hi := lo + grain
			if hi > n {
				hi = n
			}
			if err := recordTask(func() error { return fn(lo, hi) }); err != nil {
				return err
			}
		}
		return nil
	}

	errs := make([]error, chunks)
	var next atomic.Int64
	var claimed atomic.Int64
	var failed atomic.Bool
	var cancelled atomic.Bool
	var wg sync.WaitGroup
	poolQueue.Add(float64(chunks))
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			poolActive.Inc()
			defer poolActive.Dec()
			for {
				if done != nil && !cancelled.Load() {
					select {
					case <-done:
						cancelled.Store(true)
					default:
					}
				}
				c := int(next.Add(1)) - 1
				if c >= chunks || failed.Load() || cancelled.Load() {
					return
				}
				claimed.Add(1)
				poolQueue.Dec()
				lo := c * grain
				hi := lo + grain
				if hi > n {
					hi = n
				}
				if err := recordTask(func() error { return fn(lo, hi) }); err != nil {
					errs[c] = err
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	// Chunks abandoned after a failure or cancellation were counted into
	// the queue gauge but never claimed; settle the balance.
	leftover := int64(chunks) - claimed.Load()
	if leftover > 0 {
		poolQueue.Add(-float64(leftover))
		if cancelled.Load() {
			poolCancelled.Add(uint64(leftover))
		}
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	if cancelled.Load() && leftover > 0 {
		return ctx.Err()
	}
	return nil
}

// Times runs fn(i) for i in [0, n) on up to workers goroutines and
// returns the n results in index order. Each index is its own chunk
// (grain 1), which suits the coarse-grained tasks this repository runs
// through it: Monte Carlo runs, bootstrap shards, whole experiments.
//
// On failure Times returns the error of the lowest-indexed failing
// call, matching a sequential loop. A caller that needs a reduction
// returns per-index partials and folds them in index order, so no
// floating-point sum is reassociated.
func Times[R any](n, workers int, fn func(i int) (R, error)) ([]R, error) {
	return TimesCtx(context.Background(), n, workers, fn)
}

// TimesCtx is Times with cooperative cancellation via ForEachCtx.
func TimesCtx[R any](ctx context.Context, n, workers int, fn func(i int) (R, error)) ([]R, error) {
	out := make([]R, n)
	err := ForEachCtx(ctx, n, workers, 1, func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			r, err := fn(i)
			if err != nil {
				return err
			}
			out[i] = r
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
