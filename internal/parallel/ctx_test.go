package parallel

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestForEachCtxBackgroundMatchesForEach: an un-cancelled context must
// leave results bit-identical to a sequential loop.
func TestForEachCtxBackgroundMatchesForEach(t *testing.T) {
	plain := make([]int, 100)
	for i := range plain {
		plain[i] = i * i
	}
	for _, w := range workerCounts {
		ctxed := make([]int, 100)
		if err := ForEachCtx(context.Background(), 100, w, 7, func(lo, hi int) error {
			for i := lo; i < hi; i++ {
				ctxed[i] = i * i
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(plain, ctxed) {
			t.Fatalf("workers=%d: diverged from the sequential loop", w)
		}
	}
}

// TestForEachCtxPreCancelled: a context already cancelled at dispatch
// runs nothing and counts every chunk as cancelled.
func TestForEachCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	before := poolCancelled.Value()
	ran := atomic.Int64{}
	err := ForEachCtx(ctx, 100, 4, 10, func(lo, hi int) error {
		ran.Add(1)
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if ran.Load() != 0 {
		t.Fatalf("%d chunks ran on a cancelled context", ran.Load())
	}
	if got := poolCancelled.Value() - before; got != 10 {
		t.Fatalf("cancelled-chunk counter advanced by %d, want 10", got)
	}
}

// TestForEachCtxStopsSchedulingMidRun cancels while chunks are in
// flight: the dispatch must stop claiming new chunks within one task
// boundary, return ctx.Err(), and account the skipped chunks in the
// pool metrics (the queue gauge settles back, the cancelled counter
// advances).
func TestForEachCtxStopsSchedulingMidRun(t *testing.T) {
	for _, w := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		before := poolCancelled.Value()
		var started atomic.Int64
		release := make(chan struct{})
		const chunks = 64
		errc := make(chan error, 1)
		go func() {
			errc <- ForEachCtx(ctx, chunks, w, 1, func(lo, hi int) error {
				started.Add(1)
				<-release
				return nil
			})
		}()
		// Wait until every worker has a chunk in flight, then cancel and
		// let the blocked chunks finish. Workers must observe the
		// cancellation before claiming their next chunk.
		for i := 0; i < 1000 && started.Load() < int64(w); i++ {
			time.Sleep(time.Millisecond)
		}
		if started.Load() < int64(w) {
			t.Fatalf("workers=%d: chunks never started", w)
		}
		cancel()
		close(release)
		var err error
		select {
		case err = <-errc:
		case <-time.After(5 * time.Second):
			t.Fatalf("workers=%d: dispatch did not stop after cancel", w)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: got %v, want context.Canceled", w, err)
		}
		// At most one extra chunk per worker can squeeze in between the
		// cancel and a worker's next done-check; the rest are skipped.
		if s := started.Load(); s > int64(2*w) {
			t.Fatalf("workers=%d: %d of %d chunks ran after cancellation", w, s, chunks)
		}
		if poolCancelled.Value() <= before {
			t.Fatalf("workers=%d: cancelled-chunk counter did not advance", w)
		}
		if q := poolQueue.Value(); q != 0 {
			t.Fatalf("workers=%d: queue gauge %g after dispatch, want 0", w, q)
		}
	}
}

// TestForEachCtxChunkErrorBeatsCancel: a chunk error observed alongside
// cancellation is still reported (lowest index first).
func TestForEachCtxChunkErrorBeatsCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	boom := errors.New("boom")
	err := ForEachCtx(ctx, 50, 4, 1, func(lo, hi int) error {
		if lo == 0 {
			cancel()
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want the chunk error", err)
	}
}

// TestTimesCtxMatchesTimes: determinism of the ctx variants with a live
// (never-cancelled) context, including the sharded RNG path.
func TestTimesCtxMatchesTimes(t *testing.T) {
	sh := NewShardedRNG(17)
	draw := func(i int) (float64, error) { return sh.Shard(i).Float64(), nil }
	want, err := Times(200, 1, draw)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workerCounts {
		got, err := TimesCtx(context.Background(), 200, w, draw)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: TimesCtx diverged from Times", w)
		}
	}
}

// TestRecordTaskRecoversPanic: a panicking task must surface as an
// error on the dispatch (lowest index, like any chunk error), count in
// the panic metric, and leave the process alive at every worker count.
func TestRecordTaskRecoversPanic(t *testing.T) {
	for _, w := range workerCounts {
		before := poolPanics.Value()
		err := ForEachCtx(context.Background(), 100, w, 5, func(lo, hi int) error {
			if lo == 45 {
				panic("kaboom")
			}
			return nil
		})
		if err == nil || !strings.Contains(err.Error(), "kaboom") {
			t.Fatalf("workers=%d: got %v, want recovered panic error", w, err)
		}
		if poolPanics.Value() != before+1 {
			t.Fatalf("workers=%d: panic counter went %d → %d", w, before, poolPanics.Value())
		}
	}
}
