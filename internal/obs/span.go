package obs

import (
	"fmt"
	"sync/atomic"
	"time"

	"drnet/internal/mathx"
)

// spanSeconds is the family every span duration lands in, one series
// per span name: obs_span_seconds{span="drevald_bootstrap"}.
const spanSeconds = "obs_span_seconds"

// spanErrors counts spans that ended with SetError set, one series per
// span name: obs_span_errors_total{span="..."}.
const spanErrors = "obs_span_errors_total"

// Span measures one timed operation. End records the elapsed time into
// the registry's span-duration histogram (with the trace ID as the
// bucket exemplar) and, when the registry has a TraceRecorder, commits
// the completed span to its ring.
//
// Spans carry two identifiers: a trace ID — generated at the root,
// inherited by children — correlating all phases of one request, and a
// per-span ID linking children to parents. A span's mutating methods
// (Attr, SetError, End) are meant for the goroutine that owns the
// operation; they are not synchronized against each other.
type Span struct {
	reg    *Registry
	name   string
	id     string // trace/correlation ID, shared down the tree
	spanID string // this span's own ID
	parent string // parent's spanID, "" at the root
	start  time.Time
	hist   *Histogram
	rec    *TraceRecorder
	attrs  map[string]string
	errMsg string
	ended  bool
}

// StartSpan opens a root span on the registry with a fresh trace ID.
func (r *Registry) StartSpan(name string) *Span {
	return r.StartSpanWithID(name, NewID())
}

// StartSpanWithID opens a root span whose trace ID is supplied by the
// caller, e.g. a request's X-Request-Id, so exported exemplars match
// the access logs. An empty id gets a fresh one.
func (r *Registry) StartSpanWithID(name, id string) *Span {
	if id == "" {
		id = NewID()
	}
	return &Span{
		reg:    r,
		name:   name,
		id:     id,
		spanID: NewID(),
		start:  time.Now(),
		hist:   r.Histogram(spanSeconds, TimeBuckets, L("span", name)),
		rec:    r.traceRec.Load(),
	}
}

// StartSpan opens a span on the Default registry.
func StartSpan(name string) *Span { return Default.StartSpan(name) }

// StartChild opens a sub-span that inherits this span's trace ID and
// records this span as its parent, so all phases of one request share a
// correlation key. On a nil receiver it falls back to a fresh root span
// on the Default registry, so instrumented code works unchanged outside
// an instrumented request.
func (s *Span) StartChild(name string) *Span {
	if s == nil {
		return Default.StartSpan(name)
	}
	return &Span{
		reg:    s.reg,
		name:   name,
		id:     s.id,
		spanID: NewID(),
		parent: s.spanID,
		start:  time.Now(),
		hist:   s.reg.Histogram(spanSeconds, TimeBuckets, L("span", name)),
		rec:    s.rec,
	}
}

// Attr attaches a key=value attribute, carried into the recorded
// span. Later values for the same key win. Returns the span for
// chaining; safe on a nil span.
func (s *Span) Attr(key, value string) *Span {
	if s == nil {
		return nil
	}
	if s.attrs == nil {
		s.attrs = make(map[string]string, 4)
	}
	s.attrs[key] = value
	return s
}

// SetError marks the span failed. End then increments
// obs_span_errors_total{span=name} and the message lands in the
// recorded span. The last message wins; safe on a nil span.
func (s *Span) SetError(msg string) {
	if s == nil {
		return
	}
	if msg == "" {
		msg = "error"
	}
	s.errMsg = msg
}

// End records the elapsed duration and returns it. Safe on a nil span
// (records nothing), so callers can End unconditionally; a second End
// is a no-op returning the elapsed time since start.
func (s *Span) End() time.Duration {
	if s == nil {
		return 0
	}
	d := time.Since(s.start)
	if s.ended {
		return d
	}
	s.ended = true
	s.hist.ObserveExemplar(d.Seconds(), s.id)
	if s.errMsg != "" {
		s.reg.Counter(spanErrors, L("span", s.name)).Inc()
	}
	if s.rec != nil {
		s.rec.record(&spanRecord{
			Trace:           s.id,
			Span:            s.spanID,
			Parent:          s.parent,
			Name:            s.name,
			Start:           s.start,
			DurationSeconds: d.Seconds(),
			Attrs:           s.attrs,
			Error:           s.errMsg,
		})
	}
	return d
}

// idCounter and idBase drive NewID. IDs come from a counter mixed
// through SplitMix64 — deliberately not from any evaluation RNG, so ID
// generation can never perturb the deterministic PCG streams.
var (
	idCounter atomic.Uint64
	idBase    = uint64(time.Now().UnixNano())
)

// NewID returns a 16-hex-digit identifier, unique within the process
// and varying across processes. Used for request and span IDs.
func NewID() string {
	return fmt.Sprintf("%016x", mathx.SplitMix64(idBase+idCounter.Add(1)*0x9e3779b97f4a7c15))
}
