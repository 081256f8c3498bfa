// Package wideevent is the serving stack's request journal: every
// completed request emits exactly one flat, canonical "wide event"
// carrying the full provenance of the answer — which estimator regime
// produced it (ESS/N, max weight, zero-support), which stream epoch
// and reward-model staleness it was served from, the bias grade, the
// degradation reasons and fallback estimator, the bootstrap skip
// count, and the WAL ack for ingest — plus its total latency and each
// phase's start offset and duration, which is all a request timeline
// needs.
//
// The paper's core warning is that biased traces silently poison
// decisions; Voloshin et al.'s companion observation is that OPE
// results computed under disparate, unrecorded conditions cannot be
// compared or audited after the fact. The wide event is that record:
// one row per request, flat enough to filter on, kept in a lock-free
// ring with tail-biased retention — error, degraded and slow events
// are always kept; healthy ones are probabilistically sampled under a
// seeded RNG so retention decisions are reproducible in tests. The
// journal serves it three ways: filtered (/debug/events), as the
// slowest requests' timelines (/debug/traces), and as JSONL.
package wideevent

import (
	"context"
	"time"
)

// Event is one completed request, flattened. Field names are the
// canonical lowerCamel vocabulary shared by /debug/events filters,
// the JSONL export and the SLO engine; dynamic annotations go through
// Builder.Annotate into Extra under the same naming contract
// (enforced by drevallint's obshygiene check).
type Event struct {
	// Seq is the journal commit sequence (retention order); events
	// sampled out never get one.
	Seq uint64 `json:"seq"`
	// Time is the request start, read from the journal's clock.
	Time time.Time `json:"time"`
	// RequestID is the X-Request-Id the response carried.
	RequestID string `json:"requestId"`
	// Route is the instrumented route, e.g. "/evaluate".
	Route  string `json:"route"`
	Status int    `json:"status"`
	// DurationMs is the total request wall time; PhaseMs breaks it
	// down by evaluation phase (build_view, fit_model, estimate, …),
	// and PhaseStartMs gives each phase's first start as an offset
	// from the request start. All three come from the journal clock,
	// so a fixed test clock makes whole events byte-deterministic.
	DurationMs   float64            `json:"durationMs"`
	PhaseMs      map[string]float64 `json:"phaseMs,omitempty"`
	PhaseStartMs map[string]float64 `json:"phaseStartMs,omitempty"`

	// Policy is the request's policy spec (evaluate/diagnose only).
	Policy string `json:"policy,omitempty"`

	// Estimator regime — the overlap diagnostics of the answer
	// (the paper's §4.1 trust conditions, recorded per request).
	ESSRatio    float64 `json:"essRatio,omitempty"`
	MaxWeight   float64 `json:"maxWeight,omitempty"`
	ZeroSupport int     `json:"zeroSupport,omitempty"`

	// BiasGrade is the bias observatory's verdict on the request's
	// trace ("healthy", "watch", "drift"), when the observatory ran.
	BiasGrade string `json:"biasGrade,omitempty"`

	// Degradation path: whether the response was tagged degraded,
	// the machine-readable reason codes, and the canonical fallback
	// estimator name ("snips-clip", "snips-stream") when one was
	// attached.
	Degraded          bool     `json:"degraded,omitempty"`
	DegradedReasons   []string `json:"degradedReasons,omitempty"`
	FallbackEstimator string   `json:"fallbackEstimator,omitempty"`

	// Bootstrap accounting (evaluate with options.bootstrap > 0).
	BootstrapResamples int `json:"bootstrapResamples,omitempty"`
	BootstrapSkipped   int `json:"bootstrapSkipped,omitempty"`

	// Streamed-serving provenance: set when the answer came from
	// streaming aggregates rather than an inline trace.
	Streamed         bool `json:"streamed,omitempty"`
	StreamEpoch      int  `json:"streamEpoch,omitempty"`
	ModelEpoch       int  `json:"modelEpoch,omitempty"`
	StalenessRecords int  `json:"stalenessRecords,omitempty"`

	// WAL ack (ingest only): the durability coordinates the client
	// was acked with.
	WALSeq     uint64 `json:"walSeq,omitempty"`
	WALEpoch   int    `json:"walEpoch,omitempty"`
	WALSegment string `json:"walSegment,omitempty"`
	WALDurable bool   `json:"walDurable,omitempty"`

	// Error is the first failure recorded for the request: the
	// failing phase's message, or "status NNN" filled by the
	// middleware for any 4xx/5xx no phase explained. FailedPhase
	// names the phase whose message it is.
	Error       string `json:"error,omitempty"`
	FailedPhase string `json:"failedPhase,omitempty"`

	// Extra holds dynamic lowerCamel-keyed annotations.
	Extra map[string]string `json:"extra,omitempty"`
}

// Field projects a named event field to its filter-language string
// form. Unknown names fall through to Extra; absent values report
// ok=false, so a filter on a field an event lacks simply fails to
// match instead of erroring.
func (ev *Event) Field(name string) (value string, ok bool) {
	switch name {
	case "requestId":
		return ev.RequestID, true
	case "route":
		return ev.Route, true
	case "status":
		return itoa(ev.Status), true
	case "policy":
		return ev.Policy, ev.Policy != ""
	case "biasGrade":
		return ev.BiasGrade, ev.BiasGrade != ""
	case "fallbackEstimator":
		return ev.FallbackEstimator, ev.FallbackEstimator != ""
	case "error":
		return ev.Error, ev.Error != ""
	case "streamed":
		return boolString(ev.Streamed), true
	case "walSegment":
		return ev.WALSegment, ev.WALSegment != ""
	default:
		v, ok := ev.Extra[name]
		return v, ok
	}
}

func boolString(b bool) string {
	if b {
		return "true"
	}
	return "false"
}

// ctxKey carries the request's Builder through the context, so the
// handler layers can annotate the event the middleware will finish.
type ctxKey struct{}

// ContextWith attaches b to ctx.
func ContextWith(ctx context.Context, b *Builder) context.Context {
	return context.WithValue(ctx, ctxKey{}, b)
}

// FromContext returns the Builder attached with ContextWith, or nil.
// Combined with the nil-safe Builder methods, callers can annotate
// unconditionally.
func FromContext(ctx context.Context) *Builder {
	b, _ := ctx.Value(ctxKey{}).(*Builder)
	return b
}

// Builder accumulates one request's event between Begin and Finish.
// All methods are nil-receiver safe, so code paths without a journal
// (offline tools, the /metrics route) cost a pointer check. A Builder
// is owned by one request goroutine; it is not safe for concurrent
// annotation.
type Builder struct {
	j     *Journal
	start time.Time
	ev    Event
	done  bool
}

// Phase starts timing one named evaluation phase on the journal
// clock and returns the func that commits it; call it when the phase
// ends. Repeated phases accumulate their durations and keep their
// first start offset.
func (b *Builder) Phase(name string) func() {
	if b == nil {
		return func() {}
	}
	t0 := b.j.now()
	return func() {
		if b.ev.PhaseMs == nil {
			b.ev.PhaseMs = make(map[string]float64, 8)
			b.ev.PhaseStartMs = make(map[string]float64, 8)
		}
		if _, seen := b.ev.PhaseStartMs[name]; !seen {
			b.ev.PhaseStartMs[name] = t0.Sub(b.start).Seconds() * 1000
		}
		b.ev.PhaseMs[name] += b.j.now().Sub(t0).Seconds() * 1000
	}
}

// FailPhase records that the named phase failed with msg, unless the
// event already holds an error: the first failure explains the
// request.
func (b *Builder) FailPhase(name, msg string) {
	if b != nil && b.ev.Error == "" {
		b.ev.Error = msg
		b.ev.FailedPhase = name
	}
}

// Annotate attaches one dynamic key=value to the event. Keys share
// the canonical field namespace: non-empty lowerCamel, linted at the
// call site by drevallint's obshygiene check.
func (b *Builder) Annotate(key, value string) {
	if b == nil {
		return
	}
	if b.ev.Extra == nil {
		b.ev.Extra = make(map[string]string, 4)
	}
	b.ev.Extra[key] = value
}

// SetPolicy records the request's policy spec.
func (b *Builder) SetPolicy(spec string) {
	if b != nil {
		b.ev.Policy = spec
	}
}

// SetRegime records the estimator regime the answer was computed in.
func (b *Builder) SetRegime(essRatio, maxWeight float64, zeroSupport int) {
	if b != nil {
		b.ev.ESSRatio = essRatio
		b.ev.MaxWeight = maxWeight
		b.ev.ZeroSupport = zeroSupport
	}
}

// SetBiasGrade records the bias observatory's verdict.
func (b *Builder) SetBiasGrade(grade string) {
	if b != nil {
		b.ev.BiasGrade = grade
	}
}

// SetDegraded marks the event degraded with its reason codes.
func (b *Builder) SetDegraded(reasonCodes []string) {
	if b != nil {
		b.ev.Degraded = true
		b.ev.DegradedReasons = reasonCodes
	}
}

// SetFallback records the canonical fallback estimator name.
func (b *Builder) SetFallback(estimator string) {
	if b != nil {
		b.ev.FallbackEstimator = estimator
	}
}

// SetBootstrap records the bootstrap accounting.
func (b *Builder) SetBootstrap(resamples, skipped int) {
	if b != nil {
		b.ev.BootstrapResamples = resamples
		b.ev.BootstrapSkipped = skipped
	}
}

// SetStream records streamed-serving provenance.
func (b *Builder) SetStream(epoch, modelEpoch, stalenessRecords int) {
	if b != nil {
		b.ev.Streamed = true
		b.ev.StreamEpoch = epoch
		b.ev.ModelEpoch = modelEpoch
		b.ev.StalenessRecords = stalenessRecords
	}
}

// SetWALAck records the ingest durability ack.
func (b *Builder) SetWALAck(seq uint64, epoch int, segment string, durable bool) {
	if b != nil {
		b.ev.WALSeq = seq
		b.ev.WALEpoch = epoch
		b.ev.WALSegment = segment
		b.ev.WALDurable = durable
	}
}

// SetError records the request's failure detail. First error wins, so
// the middleware's generic "status NNN" backstop never overwrites a
// failed phase's specific message.
func (b *Builder) SetError(msg string) {
	if b != nil && b.ev.Error == "" {
		b.ev.Error = msg
	}
}

// Finish stamps the status and total duration and emits the event —
// exactly once; later calls are no-ops, which is what makes the
// one-event-per-request invariant enforceable from a single deferred
// call in the middleware.
func (b *Builder) Finish(status int) {
	if b == nil || b.done {
		return
	}
	b.done = true
	b.ev.Status = status
	b.ev.DurationMs = b.j.now().Sub(b.start).Seconds() * 1000
	b.j.emit(&b.ev)
}

// itoa is strconv.Itoa for the small positive ints events carry,
// inlined to keep Field allocation-free for common statuses.
func itoa(v int) string {
	switch v {
	case 200:
		return "200"
	case 400:
		return "400"
	case 422:
		return "422"
	case 429:
		return "429"
	case 500:
		return "500"
	case 503:
		return "503"
	}
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var buf [12]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}
