package obs

import (
	"sync/atomic"
	"time"
)

// spanRecord is the immutable, completed form of a Span: what the
// trace recorder keeps after End. Records of one request share Trace
// and link child to parent through Span and Parent.
type spanRecord struct {
	Trace           string
	Span            string
	Parent          string
	Name            string
	Start           time.Time
	DurationSeconds float64
	Attrs           map[string]string
	Error           string
}

// TraceRecorder keeps the most recent completed spans in a fixed-size
// ring buffer. Writes are lock-free — a single atomic sequence bump
// plus an atomic pointer store — so recording a span costs about as
// much as a histogram observation and can sit on every request path.
// Old spans are overwritten once the ring wraps, which bounds memory
// regardless of traffic.
type TraceRecorder struct {
	slots []atomic.Pointer[spanRecord]
	next  atomic.Uint64
}

// NewTraceRecorder returns a recorder holding up to capacity completed
// spans (minimum 1).
func NewTraceRecorder(capacity int) *TraceRecorder {
	if capacity < 1 {
		capacity = 1
	}
	return &TraceRecorder{slots: make([]atomic.Pointer[spanRecord], capacity)}
}

// record commits one completed span. Called from Span.End; nil-safe so
// spans on registries without a recorder cost nothing extra.
func (tr *TraceRecorder) record(rec *spanRecord) {
	if tr == nil || rec == nil {
		return
	}
	seq := tr.next.Add(1) - 1
	tr.slots[seq%uint64(len(tr.slots))].Store(rec)
}

// SetTraceRecorder installs the recorder completed spans commit to
// (nil to disable). Spans capture the recorder at StartSpan time.
func (r *Registry) SetTraceRecorder(tr *TraceRecorder) {
	r.traceRec.Store(tr)
}
