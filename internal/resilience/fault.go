package resilience

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"drnet/internal/mathx"
)

// Canonical injection point names. Points are plain strings so layers
// can add their own (drevald uses "http.<route>"), but the shared ones
// live here to keep callers and fault plans in sync.
const (
	// PointTraceRead fires in the traceio CSV/JSONL readers.
	PointTraceRead = "traceio.read"
	// PointPoolTask fires at the start of every worker-pool task.
	PointPoolTask = "parallel.task"
	// PointWALAppend fires before a WAL frame is written; an injected
	// error fails the append cleanly (nothing reaches the file).
	PointWALAppend = "walog.append"
	// PointWALWrite fires mid-frame: an injected error makes the WAL
	// writer perform a deliberately SHORT write (a torn frame on disk)
	// before surfacing the error, so recovery's torn-tail truncation is
	// exercised against realistic partial writes.
	PointWALWrite = "walog.write"
	// PointWALSync fires in place of fsync; an injected error is
	// reported as a sync failure (the data may or may not be durable,
	// exactly like a real fsync error).
	PointWALSync = "walog.sync"
)

// ErrInjected is the sentinel wrapped by every injected error, so
// tests and callers can distinguish deliberate chaos from real
// failures with errors.Is.
var ErrInjected = errors.New("resilience: injected fault")

// FaultSpec describes what can happen at one injection point. The
// probabilities are evaluated per hit in order panic, error; latency is
// an independent draw that applies before either. All zero means the
// point never fires.
type FaultSpec struct {
	// ErrProb is the probability a hit returns an injected error.
	ErrProb float64
	// PanicProb is the probability a hit panics.
	PanicProb float64
	// LatencyProb is the probability a hit sleeps for Latency first.
	LatencyProb float64
	// Latency is the injected delay.
	Latency time.Duration
}

type pointState struct {
	spec  FaultSpec
	hash  uint64
	hits  atomic.Uint64
	fired atomic.Uint64
}

// FaultPlan is a deterministic, seed-driven set of fault specs keyed by
// injection point. The outcome of the n-th hit at a point is a pure
// function of (seed, point, n): the hit index comes from a per-point
// atomic counter and the decision from a SplitMix64 hash, never from a
// shared RNG. Under concurrency the assignment of hit indices to
// callers can interleave, but the multiset of outcomes is fixed, which
// is what makes chaos runs reproducible.
//
// Build a plan with NewFaultPlan and Add, then install it with
// Activate. Plans are immutable once activated.
type FaultPlan struct {
	seed   uint64
	points map[string]*pointState
}

// NewFaultPlan returns an empty plan rooted at seed.
func NewFaultPlan(seed int64) *FaultPlan {
	return &FaultPlan{seed: uint64(seed), points: map[string]*pointState{}}
}

// Add registers a spec for an injection point and returns the plan for
// chaining. It must not be called after Activate.
func (p *FaultPlan) Add(point string, spec FaultSpec) *FaultPlan {
	p.points[point] = &pointState{spec: spec, hash: hashString(point)}
	return p
}

// Hits reports how many times a point has been reached under this plan.
func (p *FaultPlan) Hits(point string) uint64 {
	if st, ok := p.points[point]; ok {
		return st.hits.Load()
	}
	return 0
}

// Fired reports how many hits at a point injected an error or panic.
func (p *FaultPlan) Fired(point string) uint64 {
	if st, ok := p.points[point]; ok {
		return st.fired.Load()
	}
	return 0
}

// active is the process-wide plan; nil (the default) makes every
// Inject call a single atomic load and nothing else.
var active atomic.Pointer[FaultPlan]

// Activate installs a plan process-wide. Passing nil disables
// injection, as does Deactivate.
func Activate(p *FaultPlan) { active.Store(p) }

// Deactivate removes the active plan; every Inject becomes a no-op.
func Deactivate() { active.Store(nil) }

// Inject is the instrumentation hook: call it at a named point and
// propagate the returned error. With no active plan it returns nil
// immediately. With a plan it may sleep, return an ErrInjected-wrapped
// error, or panic, per the point's FaultSpec.
func Inject(point string) error {
	p := active.Load()
	if p == nil {
		return nil
	}
	return p.hit(point)
}

func (p *FaultPlan) hit(point string) error {
	st, ok := p.points[point]
	if !ok {
		return nil
	}
	n := st.hits.Add(1) - 1
	if st.spec.LatencyProb > 0 && unit(p.seed^st.hash^latencySalt, n) < st.spec.LatencyProb {
		time.Sleep(st.spec.Latency)
	}
	u := unit(p.seed^st.hash, n)
	switch {
	case u < st.spec.PanicProb:
		st.fired.Add(1)
		panic(fmt.Sprintf("resilience: injected panic at %s (hit %d)", point, n))
	case u < st.spec.PanicProb+st.spec.ErrProb:
		st.fired.Add(1)
		return fmt.Errorf("%s hit %d: %w", point, n, ErrInjected)
	}
	return nil
}

// latencySalt separates the latency draw's stream from the outcome
// draw's, so enabling latency never changes which hits error or panic.
const latencySalt = 0xD1FA11CE

// unit maps (stream, n) to a uniform value in [0, 1).
func unit(stream, n uint64) float64 {
	return float64(mathx.SplitMix64(stream+(n+1)*0x9e3779b97f4a7c15)>>11) / (1 << 53)
}

// hashString is FNV-1a, so a point's hash is the same in every run.
func hashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
