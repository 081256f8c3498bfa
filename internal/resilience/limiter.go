package resilience

import (
	"context"
	"errors"
	"time"
)

// ErrSaturated is returned by Acquire when both the concurrency slots
// and the wait queue are full. Callers translate it into backpressure
// (HTTP 429 + Retry-After in drevald).
var ErrSaturated = errors.New("resilience: limiter saturated")

// Limiter is admission control for a shared resource: at most
// maxConcurrent holders run at once, and at most maxQueue more may wait
// for a slot. Anything beyond that is shed immediately with
// ErrSaturated — bounded queueing is the point; an unbounded queue just
// converts overload into latency and memory growth.
//
// A Limiter is safe for concurrent use and must not be copied.
type Limiter struct {
	sem   chan struct{}
	queue chan struct{}
}

// NewLimiter returns a limiter admitting maxConcurrent concurrent
// holders (minimum 1) with a wait queue of maxQueue (minimum 0).
func NewLimiter(maxConcurrent, maxQueue int) *Limiter {
	if maxConcurrent < 1 {
		maxConcurrent = 1
	}
	if maxQueue < 0 {
		maxQueue = 0
	}
	return &Limiter{
		sem:   make(chan struct{}, maxConcurrent),
		queue: make(chan struct{}, maxQueue),
	}
}

// Acquire obtains a concurrency slot, waiting in the bounded queue if
// none is free. It returns a release function that must be called
// exactly once when the work finishes, the time spent queued (zero on
// the fast path), and an error: ErrSaturated when the queue is full, or
// ctx.Err() when the caller's context ends while waiting.
func (l *Limiter) Acquire(ctx context.Context) (release func(), waited time.Duration, err error) {
	select {
	case l.sem <- struct{}{}:
		return l.release, 0, nil
	default:
	}
	select {
	case l.queue <- struct{}{}:
	default:
		return nil, 0, ErrSaturated
	}
	start := time.Now()
	select {
	case l.sem <- struct{}{}:
		<-l.queue
		return l.release, time.Since(start), nil
	case <-ctx.Done():
		<-l.queue
		return nil, time.Since(start), ctx.Err()
	}
}

func (l *Limiter) release() { <-l.sem }
