package parallel

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

// workerCounts are the worker counts every determinism test sweeps, as
// required by the acceptance criteria.
var workerCounts = []int{1, 2, 8}

func TestForEachCoversEveryIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 7, 100, 1000} {
		for _, grain := range []int{1, 3, 64, 5000} {
			for _, w := range workerCounts {
				hits := make([]int32, n)
				err := ForEachCtx(context.Background(), n, w, grain, func(lo, hi int) error {
					for i := lo; i < hi; i++ {
						atomic.AddInt32(&hits[i], 1)
					}
					return nil
				})
				if err != nil {
					t.Fatalf("n=%d grain=%d workers=%d: %v", n, grain, w, err)
				}
				for i, h := range hits {
					if h != 1 {
						t.Fatalf("n=%d grain=%d workers=%d: index %d visited %d times", n, grain, w, i, h)
					}
				}
			}
		}
	}
}

func TestForEachDefaultGrain(t *testing.T) {
	var visited atomic.Int64
	if err := ForEachCtx(context.Background(), 100, 4, 0, func(lo, hi int) error {
		visited.Add(int64(hi - lo))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if visited.Load() != 100 {
		t.Fatalf("visited %d indices, want 100", visited.Load())
	}
}

// TestForEachFirstError asserts the returned error is always the one a
// sequential loop would hit first, at any worker count.
func TestForEachFirstError(t *testing.T) {
	// Indices 41, 43 and 97 fail; the sequential loop dies at 41.
	bad := map[int]bool{41: true, 43: true, 97: true}
	for _, w := range workerCounts {
		err := ForEachCtx(context.Background(), 200, w, 4, func(lo, hi int) error {
			for i := lo; i < hi; i++ {
				if bad[i] {
					return fmt.Errorf("index %d", i)
				}
			}
			return nil
		})
		if err == nil || err.Error() != "index 41" {
			t.Fatalf("workers=%d: got %v, want index 41", w, err)
		}
	}
}

func TestMapPreservesOrder(t *testing.T) {
	in := make([]int, 500)
	for i := range in {
		in[i] = i
	}
	for _, w := range workerCounts {
		out, err := Times(len(in), w, func(i int) (int, error) { return in[i] * in[i], nil })
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", w, i, v, i*i)
			}
		}
	}
}

func TestMapFirstError(t *testing.T) {
	in := make([]int, 100)
	sentinel := errors.New("boom")
	for _, w := range workerCounts {
		_, err := Times(len(in), w, func(i int) (int, error) {
			if i >= 30 {
				return 0, fmt.Errorf("item %d: %w", i, sentinel)
			}
			return 0, nil
		})
		if err == nil || !errors.Is(err, sentinel) || err.Error() != "item 30: boom" {
			t.Fatalf("workers=%d: got %v, want item 30", w, err)
		}
	}
}

func TestTimesDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) []float64 {
		sh := NewShardedRNG(42)
		out, err := Times(64, workers, func(i int) (float64, error) {
			rng := sh.Shard(i)
			s := 0.0
			for k := 0; k < 100; k++ {
				s += rng.NormFloat64()
			}
			return s, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	want := run(1)
	for _, w := range workerCounts[1:] {
		got := run(w)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: output differs from workers=1", w)
		}
	}
}

// TestMapMatchesSequentialProperty checks, for random inputs, that
// mapping a pure function over them with Times equals the plain loop.
func TestMapMatchesSequentialProperty(t *testing.T) {
	f := func(xs []float64, workers uint8) bool {
		w := int(workers%8) + 1
		fn := func(x float64) float64 { return math.Sin(x) * 3.7 }
		got, err := Times(len(xs), w, func(i int) (float64, error) { return fn(xs[i]), nil })
		if err != nil {
			return false
		}
		for i, x := range xs {
			if got[i] != fn(x) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSetDefaultWorkers(t *testing.T) {
	defer SetDefaultWorkers(0)
	SetDefaultWorkers(3)
	if got := DefaultWorkers(); got != 3 {
		t.Fatalf("DefaultWorkers() = %d, want 3", got)
	}
	SetDefaultWorkers(0)
	if got := DefaultWorkers(); got < 1 {
		t.Fatalf("DefaultWorkers() = %d, want >= 1", got)
	}
	SetDefaultWorkers(-5)
	if got := DefaultWorkers(); got < 1 {
		t.Fatalf("DefaultWorkers() after negative = %d, want >= 1", got)
	}
}

func TestShardedRNGReproducible(t *testing.T) {
	sh := NewShardedRNG(7)
	a, b := sh.Shard(5), sh.Shard(5)
	for k := 0; k < 1000; k++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("shard 5 not reproducible at draw %d", k)
		}
	}
}

func TestShardedRNGStreamsDiffer(t *testing.T) {
	sh := NewShardedRNG(7)
	seen := make(map[uint64]int)
	for i := 0; i < 100; i++ {
		v := sh.Shard(i).Uint64()
		if j, dup := seen[v]; dup {
			t.Fatalf("shards %d and %d produced the same first draw", j, i)
		}
		seen[v] = i
	}
	// Different root seeds give different streams for the same shard.
	if NewShardedRNG(1).Shard(0).Uint64() == NewShardedRNG(2).Shard(0).Uint64() {
		t.Fatal("different seeds produced identical shard-0 draws")
	}
}

// TestShardedRNGMeanSane is a coarse statistical sanity check: pooled
// uniform draws across shards should average near 0.5.
func TestShardedRNGMeanSane(t *testing.T) {
	sh := NewShardedRNG(11)
	s, n := 0.0, 0
	for i := 0; i < 200; i++ {
		rng := sh.Shard(i)
		for k := 0; k < 100; k++ {
			s += rng.Float64()
			n++
		}
	}
	if mean := s / float64(n); math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("pooled mean %g too far from 0.5", mean)
	}
}

// TestStressManyTasks hammers the pool with many tiny tasks from many
// goroutines at once; run under -race this is the package's data-race
// canary.
func TestStressManyTasks(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var total atomic.Int64
			if err := ForEachCtx(context.Background(), 10000, 16, 7, func(lo, hi int) error {
				for i := lo; i < hi; i++ {
					total.Add(int64(i))
				}
				return nil
			}); err != nil {
				t.Error(err)
				return
			}
			if want := int64(10000 * 9999 / 2); total.Load() != want {
				t.Errorf("goroutine %d: sum %d, want %d", g, total.Load(), want)
			}
		}(g)
	}
	wg.Wait()
}
