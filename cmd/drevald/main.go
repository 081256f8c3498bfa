// Command drevald serves trace-driven policy evaluation over HTTP, so
// measurement pipelines can POST logged traces and receive DM/IPS/DR
// estimates with diagnostics — the paper's Figure 1 evaluator as a
// network service.
//
// Endpoints:
//
//	GET  /healthz     liveness probe: {status, uptimeSeconds, version}
//	POST /diagnose    {trace, policy} → overlap diagnostics
//	POST /evaluate    {trace, policy, options} → DM/IPS/DR estimates,
//	                  diagnostics and an optional bootstrap CI
//	GET  /metrics     Prometheus text exposition (request, estimator
//	                  regime, Go runtime and worker-pool metrics)
//	GET  /debug/vars  JSON metric snapshot + process vitals
//	GET  /debug/traces?n=10  the n slowest retained requests as
//	                  root→phase timelines (JSON)
//
// With -debug-addr set, a second listener additionally serves
// net/http/pprof under /debug/pprof/ (plus /metrics and /debug/vars),
// kept off the service port so profiling is opt-in.
//
// Every response carries an X-Request-Id (generated when the client
// does not send one), which also keys the structured access logs on
// stderr.
//
// Request schema (JSON):
//
//	{
//	  "trace":  [{"features":[...], "decision":"d", "reward":r,
//	              "propensity":p}, ...],
//	  "policy": "constant:<decision>" | "best-observed",
//	  "options": {"clip":0, "selfNormalize":false,
//	              "estimatePropensities":false, "bootstrap":200,
//	              "seed":1}
//	}
//
// Usage:
//
//	drevald [-addr :8080] [-workers 0] [-debug-addr ""] [-log-level info]
//	        [-events-buffer 1024] [-events-out events.jsonl]
//
// Compute requests (/evaluate, /diagnose, /ingest) each leave one wide
// event keyed by the request's X-Request-Id, with every phase's start
// offset and duration (model fit, estimate, bias observatory,
// bootstrap, …). The most recent -events-buffer events are queryable
// via /debug/events and, as timelines, via /debug/traces; -events-out
// additionally appends every retained event to a JSONL file.
//
// Requests are served concurrently by net/http; within each request the
// bootstrap resamples run on a shared worker pool -workers wide (0 =
// GOMAXPROCS). Bootstrap intervals are computed with one independent
// PCG stream per resample derived from options.seed, so responses are
// bit-identical at every worker count. The server drains in-flight
// requests on SIGINT or SIGTERM before exiting.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"drnet/internal/biasobs"
	"drnet/internal/core"
	"drnet/internal/obs"
	"drnet/internal/parallel"
	"drnet/internal/resilience"
	"drnet/internal/slo"
	"drnet/internal/traceio"
	"drnet/internal/wideevent"
)

func main() {
	if err := run(os.Args[1:]); err != nil && !errors.Is(err, flag.ErrHelp) {
		log.Fatalf("drevald: %v", err)
	}
}

// run is drevald's whole lifecycle: parse the flags, build the server,
// recover the WAL in the background, and serve until SIGINT or SIGTERM.
// It returns once in-flight requests have drained and everything the
// server opened is flushed and closed.
func run(args []string) error {
	cfg, err := parseFlags(args)
	if err != nil {
		return err
	}
	s, err := newServer(cfg, obs.Default)
	if err != nil {
		return err
	}
	defer s.close()
	parallel.SetDefaultWorkers(cfg.workers)
	if eng := s.stream; eng != nil {
		s.log.Info("wal opened", "dir", cfg.walDir, "fsync", cfg.fsync,
			"segments", eng.recovery.Segments, "frames", eng.recovery.Frames,
			"truncatedBytes", eng.recovery.TruncatedBytes)
		// Replay runs in the background: the server accepts traffic
		// immediately and streaming endpoints answer 503 until the
		// recovered state is complete.
		go func() {
			defer s.recoverGoroutine("wal-replay")
			eng.replay()
		}()
	}
	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	if cfg.debugAddr != "" {
		dln, err := net.Listen("tcp", cfg.debugAddr)
		if err != nil {
			ln.Close()
			return fmt.Errorf("debug listener: %v", err)
		}
		go func() {
			defer s.recoverGoroutine("debug-listener")
			if err := http.Serve(dln, s.debugRoutes()); err != nil && !errors.Is(err, http.ErrServerClosed) {
				s.log.Error("debug listener failed", "err", err)
			}
		}()
		s.log.Info("debug listener up", "addr", dln.Addr().String())
	}
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	s.log.Info("drevald listening", "addr", ln.Addr().String(), "version", obs.Version(), "workers", parallel.DefaultWorkers())
	return s.serve(ln, stop)
}

// server is one drevald: its configuration and everything its handlers
// share. Two servers on separate registries share nothing but the
// worker pool.
type server struct {
	cfg   config
	reg   *obs.Registry
	log   *slog.Logger
	start time.Time
	m     metrics

	// evalLimiter admits /evaluate and /diagnose: up to -max-concurrent
	// compute while -max-queue more wait, and the rest get 429.
	// ingestLimiter admits /ingest on its own budget, so writers and
	// evaluators cannot starve each other.
	evalLimiter, ingestLimiter *resilience.Limiter
	journal                    *wideevent.Journal
	slo                        *slo.Engine
	// stream serves /ingest and empty-trace requests; nil without
	// -wal-dir.
	stream *streamEngine

	// pages holds the objectives burning at page severity, so the
	// -degrade-on-slo-page escalation knows when the last one clears.
	pageMu sync.Mutex
	pages  map[string]resilience.Reason // guarded by pageMu

	lastBias  atomic.Pointer[biasState]
	lastTrace atomic.Pointer[traceSummary]

	closers []func() // run by close, last first
}

// newServer builds a server from cfg, creating every metric on reg:
// obs.Default in production, where internal/parallel registers the
// pool series, and a fresh registry per test. It opens the -events-out
// sink and the WAL but does not replay it: with -wal-dir set, the
// caller runs stream.replay, and streaming requests get 503 until it
// returns.
func newServer(cfg config, reg *obs.Registry) (*server, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	level, err := obs.ParseLevel(cfg.logLevel)
	if err != nil {
		return nil, err
	}
	s := &server{
		cfg:           cfg,
		reg:           reg,
		log:           obs.NewLogger(os.Stderr, level),
		start:         time.Now(),
		m:             newMetrics(reg),
		evalLimiter:   resilience.NewLimiter(cfg.maxConcurrent, cfg.maxQueue),
		ingestLimiter: resilience.NewLimiter(cfg.ingestMaxConcurrent, cfg.ingestMaxQueue),
		pages:         map[string]resilience.Reason{},
	}
	obs.RegisterRuntimeMetrics(reg)
	if err := s.initEvents(nil); err != nil {
		return nil, err
	}
	s.registerEventMetrics()
	err = s.openEventsOut()
	if err == nil && cfg.walDir != "" {
		s.stream, err = newStreamEngine(s)
	}
	if err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// openEventsOut appends every event the journal retains to -events-out
// (no-op when unset). close flushes the journal's queue, then closes
// the file.
func (s *server) openEventsOut() error {
	path := s.cfg.eventsOut
	if path == "" {
		return nil
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("-events-out: %v", err)
	}
	j := s.journal
	j.SetSink(func(line []byte) { _, _ = f.Write(line) })
	s.closers = append(s.closers, func() {
		j.SetSink(nil)
		if err := f.Close(); err != nil {
			s.log.Error("events-out close failed", "path", path, "err", err)
		}
	})
	return nil
}

// close flushes and closes what newServer opened: the -events-out
// sink, then the WAL. Calling it again does nothing.
func (s *server) close() {
	for i := len(s.closers) - 1; i >= 0; i-- {
		s.closers[i]()
	}
	s.closers = nil
	if s.stream != nil {
		if err := s.stream.wal.Close(); err != nil {
			s.log.Error("wal close failed", "err", err)
		}
	}
}

// serve answers on ln until stop delivers a signal, then shuts down
// gracefully: the listener closes immediately and in-flight requests
// get up to -drain-timeout to finish.
func (s *server) serve(ln net.Listener, stop <-chan os.Signal) error {
	srv := &http.Server{
		Handler:           s.routes(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	serveErr := make(chan error, 1)
	go func() {
		defer s.recoverGoroutine("serve")
		if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			serveErr <- err
		}
	}()
	select {
	case <-stop:
	case err := <-serveErr:
		return err
	}
	// The drain deadline is anchored to process shutdown, not to any
	// request, so Background is the right parent here.
	//lint:allow ctxdiscipline shutdown drain has no request context to inherit
	ctx, cancel := context.WithTimeout(context.Background(), s.cfg.drainTimeout)
	defer cancel()
	return srv.Shutdown(ctx)
}

// routes wires the service handlers, each behind the instrument
// middleware (request IDs, per-route metrics, access logs).
func (s *server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("GET /healthz", s.instrument("/healthz", s.handleHealthz))
	mux.Handle("POST /diagnose", s.instrument("/diagnose", s.limited("/diagnose", s.evalLimiter, s.handleDiagnose)))
	mux.Handle("POST /evaluate", s.instrument("/evaluate", s.limited("/evaluate", s.evalLimiter, s.handleEvaluate)))
	mux.Handle("POST /ingest", s.instrument("/ingest", s.limited("/ingest", s.ingestLimiter, s.handleIngest)))
	mux.Handle("GET /metrics", s.instrument("/metrics", s.reg.MetricsHandler().ServeHTTP))
	mux.Handle("GET /debug/vars", s.instrument("/debug/vars", s.handleVars))
	mux.Handle("GET /debug/traces", s.instrument("/debug/traces", s.journal.TracesHandler().ServeHTTP))
	mux.Handle("GET /debug/bias", s.instrument("/debug/bias", s.handleBias))
	mux.Handle("GET /debug/events", s.instrument("/debug/events", s.journal.Handler().ServeHTTP))
	mux.Handle("GET /debug/slo", s.instrument("/debug/slo", s.slo.Handler().ServeHTTP))
	return mux
}

// healthJSON is the /healthz response body. The timeout fields surface
// the server's resilience configuration so orchestrators can size their
// own probe budgets (e.g. terminationGracePeriod > drainTimeout).
type healthJSON struct {
	Status                string  `json:"status"`
	UptimeSeconds         float64 `json:"uptimeSeconds"`
	Version               string  `json:"version"`
	DrainTimeoutSeconds   float64 `json:"drainTimeoutSeconds"`
	RequestTimeoutSeconds float64 `json:"requestTimeoutSeconds"`
	// LastTrace describes the most recent trace view the server built
	// (absent until the first /evaluate or /diagnose request), so
	// operators can confirm what drevald actually evaluated. BiasGrade
	// is the most recent bias-observatory verdict, when one exists.
	LastTrace *lastTraceJSON `json:"lastTrace,omitempty"`
	BiasGrade string         `json:"biasGrade,omitempty"`
	// WAL reports the streaming engine's state (epoch, replay progress,
	// segment footprint). Absent when -wal-dir is unset.
	WAL *walJSON `json:"wal,omitempty"`
	// Events is the wide-event journal's counter block (emitted,
	// recorded, sampled out, sink drops), so probes can watch journal
	// health without querying /debug/events.
	Events *wideevent.Stats `json:"events,omitempty"`
	// SLO is the burn-rate rollup grade — the worst objective's alert
	// state ("ok", "warning" or "page") at probe time.
	SLO string `json:"slo,omitempty"`
}

func (s *server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	h := healthJSON{
		Status:                "ok",
		UptimeSeconds:         time.Since(s.start).Seconds(),
		Version:               obs.Version(),
		DrainTimeoutSeconds:   s.cfg.drainTimeout.Seconds(),
		RequestTimeoutSeconds: s.cfg.requestTimeout.Seconds(),
	}
	if ts := s.lastTrace.Load(); ts != nil {
		h.LastTrace = &lastTraceJSON{
			Records:          ts.records,
			UniqueContexts:   ts.contexts,
			UniqueDecisions:  ts.decisions,
			ViewBuildSeconds: ts.buildSeconds,
			AgeSeconds:       time.Since(ts.when).Seconds(),
		}
	}
	if st := s.lastBias.Load(); st != nil {
		h.BiasGrade = st.report.Grade
	}
	if s.stream != nil {
		h.WAL = s.stream.status()
	}
	st := s.journal.Stats()
	h.Events = &st
	h.SLO = s.slo.Eval().State
	writeJSON(w, h)
}

// The request schema lives in traceio, beside its one-pass decoder.
type (
	evalOptions = traceio.EvalOptions
	evalRequest = traceio.EvalRequest
)

// estimateJSON serializes a core.Estimate.
type estimateJSON struct {
	Value     float64 `json:"value"`
	StdErr    float64 `json:"stdErr"`
	N         int     `json:"n"`
	ESS       float64 `json:"ess"`
	MaxWeight float64 `json:"maxWeight"`
}

func toJSON(e core.Estimate) estimateJSON {
	return estimateJSON{Value: e.Value, StdErr: e.StdErr, N: e.N, ESS: e.ESS, MaxWeight: e.MaxWeight}
}

// diagnosticsJSON serializes core.Diagnostics.
type diagnosticsJSON struct {
	N             int     `json:"n"`
	ESS           float64 `json:"ess"`
	MatchRate     float64 `json:"matchRate"`
	MeanWeight    float64 `json:"meanWeight"`
	MaxWeight     float64 `json:"maxWeight"`
	ZeroSupport   int     `json:"zeroSupport"`
	MinPropensity float64 `json:"minPropensity"`
}

// intervalJSON serializes a core.Interval with camelCase keys, matching
// every other field in the response.
type intervalJSON struct {
	Lo    float64 `json:"lo"`
	Hi    float64 `json:"hi"`
	Level float64 `json:"level"`
}

// evalResponse is the response body of /evaluate. BootstrapSkipped is
// present whenever a bootstrap ran: it counts resamples the estimator
// failed on (and which the interval therefore excludes), so clients can
// tell a fragile CI from a solid one.
type evalResponse struct {
	DM          estimateJSON    `json:"dm"`
	IPS         estimateJSON    `json:"ips"`
	DR          estimateJSON    `json:"dr"`
	Diagnostics diagnosticsJSON `json:"diagnostics"`
	// TraceHealth is the bias observatory's compact verdict on the
	// request's trace (windowed ESS/zero-support extremes, drift alarm
	// count, overall grade). Absent when -bias-windows is 0.
	TraceHealth      *biasobs.HealthSummary `json:"traceHealth,omitempty"`
	DRInterval       *intervalJSON          `json:"drInterval,omitempty"`
	BootstrapSkipped *int                   `json:"bootstrapSkipped,omitempty"`
	// Degraded is true when the trace's overlap diagnostics crossed a
	// configured threshold (see -ess-ratio-floor and friends): the
	// requested estimates are still returned, but DegradedReasons says
	// which diagnostics failed and Fallback carries a variance-robust
	// alternative (clipped self-normalized IPS). Clients should prefer
	// Fallback — or collect a better trace — when Degraded is set.
	Degraded        bool                `json:"degraded"`
	DegradedReasons []resilience.Reason `json:"degradedReasons,omitempty"`
	// FallbackEstimator is the canonical name of the fallback estimate
	// below ("snips-clip" batch, "snips-stream" streamed) — the single
	// field clients, the wide-event journal and the SLO classifiers all
	// read, so the name can never diverge between surfaces.
	FallbackEstimator string        `json:"fallbackEstimator,omitempty"`
	Fallback          *fallbackJSON `json:"fallback,omitempty"`
	// Stream is present iff the response was served from streaming
	// aggregates (empty trace + -wal-dir): which fingerprint answered,
	// the live epoch, and how stale the frozen reward model is.
	Stream *streamMetaJSON `json:"stream,omitempty"`
}

// fallbackJSON is the degraded-mode alternative estimate.
type fallbackJSON struct {
	// Estimator names the fallback ("snips-clip": self-normalized IPS
	// with weights clipped at -fallback-clip).
	Estimator string       `json:"estimator"`
	Estimate  estimateJSON `json:"estimate"`
}

// decodeEvalFast is the fast path: traceio.DecodeEvalView decodes a
// canonical body straight into the view. It reports false, never an
// error, for a body the decoder hands back and for options that the
// reference path (decodeEvalBody, then buildEvalView) rejects or must
// see the decoded records for. The reference path then runs on the
// same bytes, so status codes and error texts are its own.
func decodeEvalFast(body []byte) (*evalRequest, *core.TraceView[traceio.FlatContext, string], bool) {
	req, view, ok := traceio.DecodeEvalView(body)
	if !ok || req.Options.EstimatePropensities ||
		req.Options.Bootstrap < 0 || req.Options.Bootstrap > maxBootstrapResamples {
		return nil, nil, false
	}
	return req, view, true
}

// decodeEvalBody is the reference path's JSON step, split out so the
// handlers can branch to streamed evaluation (empty trace + an active
// engine) before batch validation rejects the empty trace.
func decodeEvalBody(body []byte) (*evalRequest, error) {
	var req evalRequest
	if err := decodeStrict(bytes.NewReader(body), &req); err != nil {
		return nil, fmt.Errorf("invalid request body: %w", err)
	}
	return &req, nil
}

// decodeStrict decodes exactly one JSON value from r into v: unknown
// fields are errors, and so is anything but whitespace after the value.
func decodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); !errors.Is(err, io.EOF) {
		if err == nil {
			err = errors.New("unexpected data after the JSON value")
		}
		return err
	}
	return nil
}

// buildEvalView is the reference path's validation half: it turns a
// decoded batch request into a validated view.
func buildEvalView(req *evalRequest) (*core.TraceView[traceio.FlatContext, string], error) {
	if len(req.Trace) == 0 {
		return nil, errors.New("empty trace")
	}
	if err := traceio.ValidateFinite(req.Trace); err != nil {
		return nil, err
	}
	if req.Options.Bootstrap < 0 {
		return nil, fmt.Errorf("options.bootstrap must not be negative, got %d", req.Options.Bootstrap)
	}
	if req.Options.Bootstrap > maxBootstrapResamples {
		return nil, fmt.Errorf("options.bootstrap %d exceeds the maximum of %d resamples", req.Options.Bootstrap, maxBootstrapResamples)
	}
	trace := traceio.ToCore(traceio.FlatTrace{Records: req.Trace})
	if req.Options.EstimatePropensities {
		if err := core.EstimatePropensities(trace, traceio.FlatContext.Key, 5, 1e-3); err != nil {
			return nil, fmt.Errorf("propensity estimation: %v", err)
		}
	}
	view, err := core.NewTraceViewKeyed(trace, traceio.FlatContext.Key)
	if err != nil {
		return nil, fmt.Errorf("%v (set options.estimatePropensities if the trace has none)", err)
	}
	return view, nil
}

// readBody buffers a request body of at most limit bytes. A larger
// body fails with *http.MaxBytesError, even when a complete JSON value
// ends before the limit.
func readBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, error) {
	var buf bytes.Buffer
	if n := r.ContentLength; n > 0 && n <= limit {
		// Content-Length is the client's claim: size for it up to a
		// bound, and let the buffer grow past that.
		buf.Grow(int(min(n, 8<<20)) + bytes.MinRead)
	}
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, limit))
	return buf.Bytes(), err
}

// bodyError answers a request body that readBody could not read
// whole: 413 when it exceeds the route's limit, 400 otherwise.
func bodyError(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		status = http.StatusRequestEntityTooLarge
	}
	httpError(w, status, "invalid request body: "+err.Error())
}

// decodeRequest decodes an /evaluate or /diagnose body. An empty trace
// with streaming enabled goes to streamed (the aggregate-serving
// handler) once the engine is serving; otherwise it validates the batch
// inputs. It reports false whenever it has written the response itself:
// 400, 413 for an oversized body, 503 while the engine cannot serve, or
// streamed's answer.
func (s *server) decodeRequest(w http.ResponseWriter, r *http.Request, streamed func(http.ResponseWriter, *http.Request, *evalRequest)) (*evalRequest, *core.TraceView[traceio.FlatContext, string], core.Policy[traceio.FlatContext, string], bool) {
	body, err := readBody(w, r, s.cfg.maxBodyBytes)
	if err != nil {
		bodyError(w, err)
		return nil, nil, nil, false
	}
	start := time.Now()
	var view *core.TraceView[traceio.FlatContext, string]
	var fast bool
	req, err := timed(r.Context(), "decode", func() (*evalRequest, error) {
		var req *evalRequest
		if req, view, fast = decodeEvalFast(body); fast {
			return req, nil
		}
		return decodeEvalBody(body)
	})
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return nil, nil, nil, false
	}
	if !fast && len(req.Trace) == 0 && s.stream != nil {
		if s.stream.serving(w) {
			streamed(w, r, req)
		}
		return nil, nil, nil, false
	}
	// The fast path built the view as it decoded, so on that path
	// build_view times only deriving the policy from it.
	policy, err := timed(r.Context(), "build_view", func() (core.Policy[traceio.FlatContext, string], error) {
		if !fast {
			var err error
			if view, err = buildEvalView(req); err != nil {
				return nil, err
			}
		}
		return traceio.ParsePolicyView(req.Policy, view)
	})
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return nil, nil, nil, false
	}
	s.recordTraceSummary(view, time.Since(start))
	wideevent.FromContext(r.Context()).SetPolicy(req.Policy)
	return req, view, policy, true
}

// requestCtx derives the compute context for /evaluate and /diagnose:
// the request's own context (cancelled when the client disconnects)
// bounded by -request-timeout. Estimators and the bootstrap stop
// scheduling work within one chunk boundary once it ends.
func (s *server) requestCtx(r *http.Request) (context.Context, context.CancelFunc) {
	if s.cfg.requestTimeout <= 0 {
		return context.WithCancel(r.Context())
	}
	return context.WithTimeout(r.Context(), s.cfg.requestTimeout)
}

// writeEvalError renders a compute-path failure. Context expiry becomes
// 503 with a machine-readable flag ({"timeout":true} for a deadline,
// {"canceled":true} for client abandonment) so callers and the CI smoke
// test can distinguish overload from bad input; everything else is the
// usual 422.
func (s *server) writeEvalError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		s.m.timeouts.Inc()
		writeJSONStatus(w, http.StatusServiceUnavailable, evalErrorJSON{
			Error:   "request deadline exceeded before evaluation finished",
			Timeout: true,
		})
	case errors.Is(err, context.Canceled):
		s.m.canceled.Inc()
		writeJSONStatus(w, http.StatusServiceUnavailable, evalErrorJSON{
			Error:    "request canceled before evaluation finished",
			Canceled: true,
		})
	default:
		httpError(w, http.StatusUnprocessableEntity, err.Error())
	}
}

// evalErrorJSON is the error body of /evaluate and /diagnose.
type evalErrorJSON struct {
	Error    string `json:"error"`
	Timeout  bool   `json:"timeout,omitempty"`
	Canceled bool   `json:"canceled,omitempty"`
}

// timed runs one evaluation phase as a named phase of the request's
// wide event, read from ctx: the event records the phase's start
// offset and duration, and a failing phase leaves its name and message
// there. The event is the only record of the phase; /debug/traces and
// the obs_span_* metrics are read off it. With no event in ctx, timed
// only runs fn.
func timed[T any](ctx context.Context, name string, fn func() (T, error)) (T, error) {
	evb := wideevent.FromContext(ctx)
	defer evb.Phase(name)()
	v, err := fn()
	if err != nil {
		evb.FailPhase(name, err.Error())
	}
	return v, err
}

// recoverGoroutine is the deferred first statement of every background
// goroutine the server starts: a panic escaping a goroutine kills the
// whole process, so record it in the panic counter and the log instead.
func (s *server) recoverGoroutine(name string) {
	if v := recover(); v != nil {
		s.m.panics.Inc()
		s.log.Error("goroutine panicked", "goroutine", name, "panic", fmt.Sprint(v))
	}
}

// diagnoseResponse is the /diagnose body: the flat diagnostics plus
// the bias observatory's windowed verdict.
type diagnoseResponse struct {
	diagnosticsJSON
	TraceHealth *biasobs.HealthSummary `json:"traceHealth,omitempty"`
	// Stream mirrors evalResponse.Stream for aggregate-served requests.
	Stream *streamMetaJSON `json:"stream,omitempty"`
}

func (s *server) handleDiagnose(w http.ResponseWriter, r *http.Request) {
	_, view, policy, ok := s.decodeRequest(w, r, s.handleStreamDiagnose)
	if !ok {
		return
	}
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	ev := core.NewEvaluation(view, policy, nil)
	defer ev.Release()
	est, health, err := s.estimate(ctx, r, ev, 0)
	if err != nil {
		s.writeEvalError(w, err)
		return
	}
	writeDiagnose(w, r, diagnoseResponse{diagnosticsJSON: diagJSON(est.Diagnostics), TraceHealth: health})
}

// writeDiagnose ends batch and streamed /diagnose: it stamps the
// overlap regime onto the request's wide event and writes the body.
func writeDiagnose(w http.ResponseWriter, r *http.Request, resp diagnoseResponse) {
	setRegime(r, resp.diagnosticsJSON)
	writeJSON(w, resp)
}

// setRegime stamps a request's overlap diagnostics onto its wide event.
func setRegime(r *http.Request, d diagnosticsJSON) {
	wideevent.FromContext(r.Context()).SetRegime(d.ESS/float64(d.N), d.MaxWeight, d.ZeroSupport)
}

// estimate runs the one fold of every estimator family and the bias
// observatory over a batch request's evaluation, each as its own phase.
func (s *server) estimate(ctx context.Context, r *http.Request, ev *core.Evaluation[traceio.FlatContext, string], clip float64) (core.StreamEstimates, *biasobs.HealthSummary, error) {
	est, err := timed(ctx, "estimate", func() (core.StreamEstimates, error) {
		return ev.Estimates(ctx, clip)
	})
	if err != nil {
		return est, nil, err
	}
	health, err := s.observeBias(ctx, requestID(r), ev)
	return est, health, err
}

func (s *server) handleEvaluate(w http.ResponseWriter, r *http.Request) {
	req, view, policy, ok := s.decodeRequest(w, r, s.handleStreamEvaluate)
	if !ok {
		return
	}
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	model, err := timed(ctx, "fit_model", func() (*core.ViewTableModel[traceio.FlatContext, string], error) {
		return core.FitTableViewCtx(ctx, view)
	})
	if err != nil {
		s.writeEvalError(w, err)
		return
	}
	// One table serves every phase below: the fold, the observatory,
	// the bootstrap and the fallback.
	ev := core.NewEvaluation(view, policy, model)
	defer ev.Release()
	est, health, err := s.estimate(ctx, r, ev, req.Options.Clip)
	if err != nil {
		s.writeEvalError(w, err)
		return
	}
	diag := est.Diagnostics
	if s.log.Enabled(r.Context(), slog.LevelDebug) {
		s.log.Debug("evaluate diagnostics", "id", requestID(r),
			"n", diag.N, "essRatio", diag.ESS/float64(diag.N),
			"maxWeight", diag.MaxWeight, "zeroSupport", diag.ZeroSupport)
	}
	resp := estimatesResponse(est, req.Options.SelfNormalize)
	resp.TraceHealth = health
	if b := req.Options.Bootstrap; b > 0 {
		seed := req.Options.Seed
		if seed == 0 {
			seed = 1
		}
		// Sharded bootstrap: resamples run on the worker pool, one PCG
		// stream per resample, so the interval depends only on the seed.
		// Refit-DR bootstrap by index over the view: running sufficient
		// statistics per resample, no record copies.
		var stats core.BootstrapStats
		ci, err := timed(ctx, "drevald_bootstrap", func() (ci core.Interval, err error) {
			ci, stats, err = ev.BootstrapDR(ctx,
				core.DROptions{Clip: req.Options.Clip, SelfNormalize: req.Options.SelfNormalize}, seed, b, 0.95)
			return ci, err
		})
		s.m.bootResamples.Add(uint64(stats.Resamples))
		s.m.bootSkipped.Add(uint64(stats.Skipped))
		wideevent.FromContext(ctx).SetBootstrap(stats.Resamples, stats.Skipped)
		if err != nil {
			s.writeEvalError(w, err)
			return
		}
		resp.DRInterval = &intervalJSON{Lo: ci.Lo, Hi: ci.Hi, Level: ci.Level}
		resp.BootstrapSkipped = &stats.Skipped
	}
	s.finishEvaluate(w, r, resp, fallback{"snips-clip", func() (core.Estimate, error) {
		return timed(ctx, "fallback", func() (core.Estimate, error) {
			est, err := ev.Estimates(ctx, s.cfg.fallbackClip)
			return est.SNIPS, err
		})
	}})
}

// estimatesResponse maps one read of every estimator family onto the
// /evaluate body, for batch and streamed requests alike: selfNormalize
// serves SNIPS and SN-DR as IPS and DR.
func estimatesResponse(est core.StreamEstimates, selfNormalize bool) evalResponse {
	ips, dr := est.IPS, est.DR
	if selfNormalize {
		ips, dr = est.SNIPS, est.SNDR
	}
	return evalResponse{DM: toJSON(est.DM), IPS: toJSON(ips), DR: toJSON(dr), Diagnostics: diagJSON(est.Diagnostics)}
}

// fallback is the variance-robust estimate a degraded /evaluate
// response carries beside the requested ones.
type fallback struct {
	estimator string // "snips-clip" batch, "snips-stream" streamed
	estimate  func() (core.Estimate, error)
}

// finishEvaluate is the step batch and streamed /evaluate both end in.
// It records the request's overlap regime (histograms and wide event)
// and gathers every reason not to trust its estimates: the degradation
// thresholds, a fired drift alarm under -degrade-on-drift (batch), a
// reward model older than -max-model-age (stream) and SLO pages under
// -degrade-on-slo-page. With any reason, the response is still a 200
// with every requested estimate, but tagged degraded, with the reasons
// and fb attached — never a bare error.
func (s *server) finishEvaluate(w http.ResponseWriter, r *http.Request, resp evalResponse, fb fallback) {
	d := resp.Diagnostics
	s.m.essRatio.Observe(d.ESS / float64(d.N))
	s.m.maxWeight.Observe(d.MaxWeight)
	s.m.zeroSupport.Observe(float64(d.ZeroSupport))
	setRegime(r, d)
	reasons := s.cfg.thresholds.Check(d.N, d.ESS, d.MaxWeight, d.ZeroSupport)
	// A fired windowed-drift alarm means the trace mixes regimes, so
	// whole-trace estimates are suspect even when every overlap
	// diagnostic looks fine.
	if h := resp.TraceHealth; h != nil && s.cfg.degradeOnDrift && h.Alarms > 0 {
		reasons = append(reasons, resilience.DriftReason(h.Alarms, s.cfg.biasDriftThreshold))
	}
	if st := resp.Stream; st != nil && s.cfg.maxModelAge > 0 && uint64(st.StalenessRecords) > s.cfg.maxModelAge {
		reasons = append(reasons, resilience.StaleAggregatesReason(uint64(st.StalenessRecords), s.cfg.maxModelAge))
	}
	reasons = append(reasons, s.sloDegradeReasons()...)
	if len(reasons) > 0 {
		msg := "degraded response"
		if resp.Stream != nil {
			msg = "degraded stream response"
		}
		est, err := fb.estimate()
		if err != nil {
			s.writeEvalError(w, err)
			return
		}
		resp.Degraded = true
		resp.DegradedReasons = reasons
		resp.FallbackEstimator = fb.estimator
		resp.Fallback = &fallbackJSON{Estimator: fb.estimator, Estimate: toJSON(est)}
		evb := wideevent.FromContext(r.Context())
		evb.SetDegraded(reasonCodes(reasons))
		evb.SetFallback(fb.estimator)
		s.m.degraded.Inc()
		s.log.Warn(msg, "id", requestID(r), "reasons", len(reasons))
	}
	writeJSON(w, resp)
}

func diagJSON(d core.Diagnostics) diagnosticsJSON {
	return diagnosticsJSON{
		N: d.N, ESS: d.ESS, MatchRate: d.MatchRate, MeanWeight: d.MeanWeight,
		MaxWeight: d.MaxWeight, ZeroSupport: d.ZeroSupport, MinPropensity: d.MinPropensity,
	}
}

func writeJSON(w http.ResponseWriter, v any) { writeJSONStatus(w, http.StatusOK, v) }

// writeJSONStatus is writeJSON with an explicit status code.
func writeJSONStatus(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		log.Printf("drevald: encoding response: %v", err)
	}
}

func httpError(w http.ResponseWriter, code int, msg string) {
	writeJSONStatus(w, code, map[string]string{"error": msg})
}
