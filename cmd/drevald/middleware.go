package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"runtime"
	"time"

	"drnet/internal/obs"
	"drnet/internal/parallel"
	"drnet/internal/resilience"
	"drnet/internal/wideevent"
)

// metrics holds every handle the server updates outside the per-route
// families, which instrument and limited create as routes are wired.
type metrics struct {
	// Estimator-regime metrics exported per /evaluate request: the
	// paper's §4.1 overlap diagnostics as live histograms, so an
	// operator can see a fleet drifting into an untrustworthy regime
	// (ESS/N collapsing, weight tails growing, zero-support counts
	// rising) without inspecting individual responses.
	essRatio, maxWeight, zeroSupport *obs.Histogram
	bootResamples, bootSkipped       *obs.Counter
	// Resilience metrics: how often the service degrades, sheds, times
	// out or recovers a panic — the operator's view of every non-happy
	// path.
	panics, degraded, timeouts, canceled *obs.Counter
	sloTransitions                       *obs.Counter
	// Streaming metrics: ingest volume, durability failures, replay
	// progress and the live epoch, so the WAL's health is scrapeable.
	ingestRecords, ingestBatches, walAppendErrors, replayRecords *obs.Counter
	streamEpoch, streamPolicies, walBytes, walSegments           *obs.Gauge
	bias                                                         biasMetrics
}

// newMetrics creates the server's metrics on reg, with the help text of
// every drevald and span family. The span families are read off each
// wide event (observeSpans).
func newMetrics(reg *obs.Registry) metrics {
	reg.Help("obs_span_seconds", "Request (http/<route>) and phase durations by span name; bucket exemplars carry the request ID.")
	reg.Help("obs_span_errors_total", "Requests answered 5xx or degraded (http/<route>) and failed phases, by span name.")
	reg.Help("drevald_http_requests_total", "HTTP requests served, by route and status class.")
	reg.Help("drevald_http_request_seconds", "HTTP request latency, by route.")
	reg.Help("drevald_http_in_flight", "Requests currently being served, by route.")
	reg.Help("drevald_eval_ess_ratio", "ESS/N of the importance weights per /evaluate request.")
	reg.Help("drevald_eval_max_weight", "Largest importance weight per /evaluate request.")
	reg.Help("drevald_eval_zero_support", "Zero-support record count per /evaluate request.")
	reg.Help("drevald_bootstrap_resamples_total", "Bootstrap resamples attempted by /evaluate.")
	reg.Help("drevald_bootstrap_skipped_total", "Bootstrap resamples skipped because the estimator failed.")
	reg.Help("drevald_panics_total", "Handler panics recovered and converted into 500s.")
	reg.Help("drevald_degraded_total", "Responses tagged degraded because overlap diagnostics crossed a threshold.")
	reg.Help("drevald_request_timeouts_total", "Requests answered 503 because -request-timeout expired mid-computation.")
	reg.Help("drevald_request_canceled_total", "Requests answered 503 because the client went away mid-computation.")
	reg.Help("drevald_load_shed_total", "Requests shed with 429 because the admission queue was full, by route.")
	reg.Help("drevald_queue_wait_seconds", "Time admitted requests spent waiting for a compute slot, by route.")
	reg.Help("drevald_slo_transitions_total", "SLO alert state changes (ok, warning, page — any direction).")
	reg.Help("drevald_ingest_records_total", "Records durably ingested and folded into streaming aggregates.")
	reg.Help("drevald_ingest_batches_total", "Ingest batches acked (one WAL frame each).")
	reg.Help("drevald_wal_append_errors_total", "Ingest batches refused because the WAL append or fsync failed.")
	reg.Help("drevald_wal_replay_records_total", "Records recovered from the WAL during startup replay.")
	reg.Help("drevald_stream_epoch", "Records in the streaming view (replayed + ingested).")
	reg.Help("drevald_stream_policies", "Policy fingerprints with live streaming aggregates.")
	reg.Help("drevald_wal_bytes", "Total valid bytes across all WAL segments.")
	reg.Help("drevald_wal_segments", "WAL segment files on disk.")
	return metrics{
		essRatio:        reg.Histogram("drevald_eval_ess_ratio", obs.ExpBuckets(1.0/1024, 2, 11)), // 1/1024 … 1
		maxWeight:       reg.Histogram("drevald_eval_max_weight", obs.ExpBuckets(0.5, 2, 14)),     // 0.5 … 4096
		zeroSupport:     reg.Histogram("drevald_eval_zero_support", obs.ExpBuckets(1, 4, 10)),     // 1 … 262144
		bootResamples:   reg.Counter("drevald_bootstrap_resamples_total"),
		bootSkipped:     reg.Counter("drevald_bootstrap_skipped_total"),
		panics:          reg.Counter("drevald_panics_total"),
		degraded:        reg.Counter("drevald_degraded_total"),
		timeouts:        reg.Counter("drevald_request_timeouts_total"),
		canceled:        reg.Counter("drevald_request_canceled_total"),
		sloTransitions:  reg.Counter("drevald_slo_transitions_total"),
		ingestRecords:   reg.Counter("drevald_ingest_records_total"),
		ingestBatches:   reg.Counter("drevald_ingest_batches_total"),
		walAppendErrors: reg.Counter("drevald_wal_append_errors_total"),
		replayRecords:   reg.Counter("drevald_wal_replay_records_total"),
		streamEpoch:     reg.Gauge("drevald_stream_epoch"),
		streamPolicies:  reg.Gauge("drevald_stream_policies"),
		walBytes:        reg.Gauge("drevald_wal_bytes"),
		walSegments:     reg.Gauge("drevald_wal_segments"),
		bias:            registerBiasMetrics(reg),
	}
}

// reqIDKey carries the request ID through the request context.
type reqIDKey struct{}

// requestID returns the X-Request-Id assigned by the middleware, or ""
// outside an instrumented handler.
func requestID(r *http.Request) string {
	id, _ := r.Context().Value(reqIDKey{}).(string)
	return id
}

// statusRecorder captures the status code and body size a handler
// writes, for metrics and access logs.
type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int
	// wrote tracks whether the handler produced any output, so the
	// panic-recovery middleware knows if a 500 can still be written.
	wrote bool
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.wrote = true
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	r.wrote = true
	n, err := r.ResponseWriter.Write(b)
	r.bytes += n
	return n, err
}

// statusClass maps a status code to its Prometheus-friendly class label.
func statusClass(code int) string {
	switch {
	case code < 300:
		return "2xx"
	case code < 400:
		return "3xx"
	case code < 500:
		return "4xx"
	default:
		return "5xx"
	}
}

// instrument wraps a handler with the service middleware: request-ID
// generation/propagation (X-Request-Id in and out, plus the request
// context), per-route request counters by status class, a latency
// histogram, an in-flight gauge, and a structured access log line.
func (s *server) instrument(route string, h http.HandlerFunc) http.Handler {
	latency := s.reg.Histogram("drevald_http_request_seconds", obs.TimeBuckets, obs.L("route", route))
	inFlight := s.reg.Gauge("drevald_http_in_flight", obs.L("route", route))
	byClass := map[string]*obs.Counter{}
	for _, class := range []string{"2xx", "3xx", "4xx", "5xx"} {
		byClass[class] = s.reg.Counter("drevald_http_requests_total",
			obs.L("route", route), obs.L("code", class))
	}
	// Only the compute routes are traced: scrapes of /metrics, /healthz
	// and /debug/vars would otherwise flood the journal with
	// sub-millisecond events and evict the requests worth debugging.
	traced := route == "/evaluate" || route == "/diagnose" || route == "/ingest"
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("X-Request-Id")
		if id == "" {
			id = obs.NewID()
		}
		w.Header().Set("X-Request-Id", id)
		r = r.WithContext(context.WithValue(r.Context(), reqIDKey{}, id))

		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}

		// Compute routes emit exactly one wide event per request, keyed
		// by the request ID, so /debug/events, /debug/traces, histogram
		// exemplars and access logs all correlate on the same key. The
		// middleware owns begin and finish, handlers only annotate
		// through the request context, and the deferred Finish commits
		// even when the handler panics (the recovery below has already
		// rewritten the status to 500 by then); the extra tail it
		// measures (metric update + access log) is microseconds.
		if traced {
			evb := s.journal.Begin(id, route)
			r = r.WithContext(wideevent.ContextWith(r.Context(), evb))
			defer func() {
				if rec.status >= 400 {
					evb.SetError(fmt.Sprintf("status %d", rec.status))
				}
				evb.Finish(rec.status)
			}()
		}

		inFlight.Inc()
		defer inFlight.Dec()
		start := time.Now()
		func() {
			// Panic recovery: a handler (or injected) panic becomes a
			// 500 and a drevald_panics_total tick instead of killing
			// the connection with an empty reply. If the handler
			// already wrote, the status is only corrected in the
			// metrics/logs — the wire bytes are gone.
			defer func() {
				if p := recover(); p != nil {
					s.m.panics.Inc()
					s.log.Error("handler panic", "id", id, "route", route, "panic", fmt.Sprint(p))
					if !rec.wrote {
						httpError(rec, http.StatusInternalServerError, "internal server error")
					} else {
						rec.status = http.StatusInternalServerError
					}
				}
			}()
			// Chaos hook: lets the fault-injection test suite fail or
			// stall whole requests at the HTTP boundary (point
			// "http/<route>"); a no-op when no plan is active.
			if err := resilience.Inject("http" + route); err != nil {
				httpError(rec, http.StatusInternalServerError, err.Error())
				return
			}
			h(rec, r)
		}()
		dur := time.Since(start)

		latency.Observe(dur.Seconds())
		byClass[statusClass(rec.status)].Inc()
		s.log.Info("request",
			"id", id,
			"method", r.Method,
			"route", route,
			"status", rec.status,
			"bytes", rec.bytes,
			"durMs", float64(dur.Microseconds())/1000,
		)
	})
}

// limited puts a handler behind lim: up to its concurrency limit of
// requests run at once, its queue limit more wait for a slot (the wait
// is exported as drevald_queue_wait_seconds), and everything beyond
// that is shed immediately with 429 + Retry-After, so overload degrades
// into fast, explicit rejections instead of a pile of slow timeouts. A
// client that gives up while queued gets the usual 503 cancellation
// body.
func (s *server) limited(route string, lim *resilience.Limiter, h http.HandlerFunc) http.HandlerFunc {
	shed := s.reg.Counter("drevald_load_shed_total", obs.L("route", route))
	queueWait := s.reg.Histogram("drevald_queue_wait_seconds", obs.TimeBuckets, obs.L("route", route))
	return func(w http.ResponseWriter, r *http.Request) {
		release, waited, err := lim.Acquire(r.Context())
		if err != nil {
			if errors.Is(err, resilience.ErrSaturated) {
				shed.Inc()
				w.Header().Set("Retry-After", "1")
				httpError(w, http.StatusTooManyRequests, "server saturated: concurrency and queue limits reached, retry later")
				return
			}
			s.writeEvalError(w, err)
			return
		}
		defer release()
		queueWait.Observe(waited.Seconds())
		h(w, r)
	}
}

// handleVars is the JSON twin of /metrics: a full metric snapshot plus
// process vitals, in the spirit of expvar.
func (s *server) handleVars(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, map[string]any{
		"version":       obs.Version(),
		"uptimeSeconds": time.Since(s.start).Seconds(),
		"goroutines":    runtime.NumGoroutine(),
		"workers":       parallel.DefaultWorkers(),
		"events":        s.journal.Stats(),
		"metrics":       s.reg.Snapshot(),
	})
}

// debugRoutes builds the opt-in debug listener's mux: pprof, plus
// /metrics, /debug/vars, /debug/traces and the other read-only
// observability endpoints so a scraper pointed at the debug port sees
// everything. Served on a separate address (-debug-addr) so profiling
// endpoints are never exposed on the service port.
func (s *server) debugRoutes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("GET /metrics", s.reg.MetricsHandler())
	mux.HandleFunc("GET /debug/vars", s.handleVars)
	mux.Handle("GET /debug/traces", s.journal.TracesHandler())
	mux.HandleFunc("GET /debug/bias", s.handleBias)
	mux.Handle("GET /debug/events", s.journal.Handler())
	mux.Handle("GET /debug/slo", s.slo.Handler())
	return mux
}
