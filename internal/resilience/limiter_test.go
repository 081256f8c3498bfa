package resilience

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestLimiterFastPath(t *testing.T) {
	l := NewLimiter(2, 0)
	rel1, waited, err := l.Acquire(context.Background())
	if err != nil || waited != 0 {
		t.Fatalf("first acquire: waited %v, err %v", waited, err)
	}
	rel2, _, err := l.Acquire(context.Background())
	if err != nil {
		t.Fatalf("second acquire: %v", err)
	}
	if got := len(l.sem); got != 2 {
		t.Fatalf("%d slots held, want 2", got)
	}
	// Both slots held, queue empty → immediate shed.
	if _, _, err := l.Acquire(context.Background()); !errors.Is(err, ErrSaturated) {
		t.Fatalf("third acquire: %v, want ErrSaturated", err)
	}
	rel1()
	rel2()
	if got := len(l.sem); got != 0 {
		t.Fatalf("%d slots held after release, want 0", got)
	}
}

func TestLimiterQueueAdmitsWhenSlotFrees(t *testing.T) {
	l := NewLimiter(1, 1)
	rel, _, err := l.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() {
		rel2, waited, err := l.Acquire(context.Background())
		if err == nil {
			if waited <= 0 {
				err = errors.New("queued acquire reported zero wait")
			}
			rel2()
		}
		got <- err
	}()
	// Give the goroutine time to enter the queue, then free the slot.
	for i := 0; i < 100 && len(l.queue) == 0; i++ {
		time.Sleep(time.Millisecond)
	}
	if len(l.queue) != 1 {
		t.Fatal("acquirer never queued")
	}
	rel()
	select {
	case err := <-got:
		if err != nil {
			t.Fatalf("queued acquire: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("queued acquire never admitted")
	}
}

func TestLimiterShedsBeyondQueue(t *testing.T) {
	l := NewLimiter(1, 1)
	rel, _, err := l.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer rel()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	queued := make(chan error, 1)
	go func() {
		_, _, err := l.Acquire(ctx)
		queued <- err
	}()
	for i := 0; i < 100 && len(l.queue) == 0; i++ {
		time.Sleep(time.Millisecond)
	}
	// Slot held, queue full → the next acquire sheds immediately.
	if _, _, err := l.Acquire(context.Background()); !errors.Is(err, ErrSaturated) {
		t.Fatalf("got %v, want ErrSaturated", err)
	}
	// The queued acquirer leaves with ctx.Err when its context ends.
	cancel()
	select {
	case err := <-queued:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("queued acquire: %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("queued acquire never returned after cancel")
	}
	if len(l.queue) != 0 {
		t.Fatalf("%d acquirers queued after cancel, want 0", len(l.queue))
	}
}

// TestLimiterConcurrencyCap hammers the limiter from many goroutines
// and asserts the number of simultaneous holders never exceeds the cap.
func TestLimiterConcurrencyCap(t *testing.T) {
	const cap, clients = 4, 32
	l := NewLimiter(cap, clients)
	var inside, peak, shed atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rel, _, err := l.Acquire(context.Background())
			if err != nil {
				shed.Add(1)
				return
			}
			n := inside.Add(1)
			for {
				p := peak.Load()
				if n <= p || peak.CompareAndSwap(p, n) {
					break
				}
			}
			time.Sleep(2 * time.Millisecond)
			inside.Add(-1)
			rel()
		}()
	}
	wg.Wait()
	if peak.Load() > cap {
		t.Fatalf("peak concurrency %d exceeds cap %d", peak.Load(), cap)
	}
	if shed.Load() > 0 {
		t.Fatalf("%d acquires shed with queue sized for all clients", shed.Load())
	}
}
