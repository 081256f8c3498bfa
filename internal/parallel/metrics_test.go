package parallel

import (
	"context"
	"errors"
	"testing"
)

// TestPoolMetricsCountTasks asserts the task counter advances by
// exactly the number of chunks executed, on both the serial and the
// parallel path, and that the duration histogram keeps pace.
func TestPoolMetricsCountTasks(t *testing.T) {
	before := poolTasks.Value()
	histBefore := poolTaskSeconds.Count()

	// Serial path: workers=1, grain=1 → 10 chunks.
	if err := ForEachCtx(context.Background(), 10, 1, 1, func(lo, hi int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	// Parallel path: 4 workers, grain=1 → 20 chunks.
	if err := ForEachCtx(context.Background(), 20, 4, 1, func(lo, hi int) error { return nil }); err != nil {
		t.Fatal(err)
	}

	if got := poolTasks.Value() - before; got != 30 {
		t.Fatalf("tasks delta = %d, want 30", got)
	}
	if got := poolTaskSeconds.Count() - histBefore; got != 30 {
		t.Fatalf("task-duration observations delta = %d, want 30", got)
	}
}

// TestPoolQueueGaugeSettles asserts the queue-depth gauge returns to
// its prior level after a run — including when a failure abandons
// unclaimed chunks.
func TestPoolQueueGaugeSettles(t *testing.T) {
	before := poolQueue.Value()
	if err := ForEachCtx(context.Background(), 64, 4, 1, func(lo, hi int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if got := poolQueue.Value(); got != before {
		t.Fatalf("queue depth after clean run = %g, want %g", got, before)
	}

	boom := errors.New("boom")
	err := ForEachCtx(context.Background(), 64, 4, 1, func(lo, hi int) error {
		if lo == 0 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if got := poolQueue.Value(); got != before {
		t.Fatalf("queue depth after failed run = %g, want %g", got, before)
	}
	if got := poolActive.Value(); got != 0 {
		t.Fatalf("active workers after runs = %g, want 0", got)
	}
}

// TestDefaultWorkersGauge tracks SetDefaultWorkers through the gauge.
func TestDefaultWorkersGauge(t *testing.T) {
	defer SetDefaultWorkers(0)
	SetDefaultWorkers(3)
	if got := poolWorkers.Value(); got != 3 {
		t.Fatalf("default-workers gauge = %g, want 3", got)
	}
	SetDefaultWorkers(0)
	if got := poolWorkers.Value(); got != float64(DefaultWorkers()) {
		t.Fatalf("default-workers gauge = %g, want %d", got, DefaultWorkers())
	}
}
