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
//	GET  /debug/traces?n=10  the n slowest recent requests as
//	                  parent→child span timelines (JSON)
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
//	        [-trace-out spans.jsonl] [-trace-buffer 512]
//
// Compute requests (/evaluate, /diagnose) are traced: the root span's
// trace ID is the request's X-Request-Id and each evaluation phase
// (diagnose, model fit, DM/IPS/DR, bootstrap) is a child span. The
// most recent -trace-buffer completed spans are queryable via
// /debug/traces; -trace-out additionally appends every completed span
// to a JSONL file.
//
// Requests are served concurrently by net/http; within each request the
// bootstrap resamples run on a shared worker pool -workers wide (0 =
// GOMAXPROCS). Bootstrap intervals are computed with one independent
// PCG stream per resample derived from options.seed, so responses are
// bit-identical at every worker count. The server drains in-flight
// requests on SIGINT or SIGTERM before exiting.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"drnet/internal/biasobs"
	"drnet/internal/core"
	"drnet/internal/obs"
	"drnet/internal/parallel"
	"drnet/internal/resilience"
	"drnet/internal/slo"
	"drnet/internal/traceio"
	"drnet/internal/walog"
	"drnet/internal/wideevent"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 0, "worker-pool width for per-request bootstrap resampling (0 = GOMAXPROCS)")
	debugAddr := flag.String("debug-addr", "", "optional second listen address for /debug/pprof, /metrics and /debug/vars (empty = disabled)")
	logLevel := flag.String("log-level", "info", "log level: debug, info, warn, error")
	reqTimeout := flag.Duration("request-timeout", requestTimeout, "per-request deadline for /evaluate and /diagnose; the bootstrap stops scheduling work once it expires (0 = no deadline)")
	drain := flag.Duration("drain-timeout", drainTimeout, "how long shutdown waits for in-flight requests to finish (must be > 0)")
	maxConcurrent := flag.Int("max-concurrent", 64, "maximum /evaluate and /diagnose requests computing at once (must be >= 1)")
	maxQueue := flag.Int("max-queue", 256, "requests allowed to wait for a compute slot before the server sheds with 429 (0 = no queue)")
	essFloor := flag.Float64("ess-ratio-floor", degradeThresholds.ESSRatioFloor, "degrade /evaluate responses when ESS/N falls below this (0 = disabled)")
	weightCeiling := flag.Float64("max-weight-ceiling", degradeThresholds.MaxWeightCeiling, "degrade /evaluate responses when the largest importance weight exceeds this (0 = disabled)")
	zeroCap := flag.Float64("zero-support-cap", degradeThresholds.ZeroSupportCap, "degrade /evaluate responses when the zero-support record fraction exceeds this (0 = disabled)")
	fbClip := flag.Float64("fallback-clip", fallbackClip, "importance-weight clip of the degraded-mode fallback estimator (must be > 0)")
	bWindows := flag.Int("bias-windows", biasWindows, "windows the bias observatory slices each request's trace into (0 = observatory disabled)")
	bDrift := flag.Float64("bias-drift-threshold", biasDriftThreshold, "CUSUM decision threshold in sigma units for the observatory's drift alarms (must be > 0)")
	degradeDrift := flag.Bool("degrade-on-drift", degradeOnDrift, "tag /evaluate responses degraded with a trace_drift reason when a drift alarm fires")
	traceOut := flag.String("trace-out", "", "append every completed span as one JSON line (JSONL) to this file (empty = disabled)")
	traceBuffer := flag.Int("trace-buffer", traceRecorder.Capacity(), "completed spans kept in memory for /debug/traces (must be >= 1)")
	walDir := flag.String("wal-dir", "", "directory for the streaming write-ahead log; enables POST /ingest and aggregate-served /evaluate (empty = streaming disabled)")
	fsync := flag.String("fsync", "always", "WAL durability point: always (ack == durable), interval, or never")
	fsyncInterval := flag.Duration("fsync-interval", 100*time.Millisecond, "background sync period under -fsync interval (must be > 0)")
	segmentBytes := flag.Int64("segment-bytes", 64<<20, "WAL segment rotation threshold in bytes")
	ingestMax := flag.Int64("ingest-max-bytes", ingestMaxBytes, "maximum /ingest body size in bytes (must be >= 1)")
	ingestConcurrent := flag.Int("ingest-max-concurrent", 16, "maximum /ingest batches applying at once (must be >= 1)")
	ingestQueue := flag.Int("ingest-max-queue", 64, "ingest batches allowed to wait before 429 (0 = no queue)")
	maxModelAge := flag.Uint64("max-model-age", 0, "degrade streamed responses whose reward model is more than this many records behind the live epoch (0 = never)")
	biasRefresh := flag.Int("bias-refresh", 0, "rerun the bias observatory over the streamed view every this many ingested records (0 = disabled)")
	eventsBuffer := flag.Int("events-buffer", eventJournal.Capacity(), "wide events retained in memory for /debug/events (must be >= 1)")
	eventsSample := flag.Float64("events-sample", 1, "fraction of healthy wide events retained; error, degraded and slow events are always kept (must be in [0, 1])")
	eventsSlowMs := flag.Float64("events-slow-ms", 250, "wide events at least this slow are always retained regardless of -events-sample (0 = disabled)")
	eventsSeed := flag.Uint64("events-seed", 1, "seed of the deterministic healthy-event sampler")
	eventsOut := flag.String("events-out", "", "append every retained wide event as one JSON line (JSONL) to this file (empty = disabled)")
	sloConfig := flag.String("slo-config", "", "JSON file declaring the SLO objectives and burn-rate windows (empty = built-in defaults)")
	degradeSLOPage := flag.Bool("degrade-on-slo-page", degradeOnSLOPage, "tag /evaluate responses degraded with an slo_burn reason while any objective burns at page severity")
	flag.Parse()
	if *drain <= 0 {
		log.Fatalf("drevald: -drain-timeout must be > 0, got %v", *drain)
	}
	if *reqTimeout < 0 {
		log.Fatalf("drevald: -request-timeout must be >= 0, got %v", *reqTimeout)
	}
	if *maxConcurrent < 1 {
		log.Fatalf("drevald: -max-concurrent must be >= 1, got %d", *maxConcurrent)
	}
	if *maxQueue < 0 {
		log.Fatalf("drevald: -max-queue must be >= 0, got %d", *maxQueue)
	}
	if *essFloor < 0 || *weightCeiling < 0 || *zeroCap < 0 {
		log.Fatalf("drevald: degradation thresholds must be >= 0")
	}
	if *fbClip <= 0 {
		log.Fatalf("drevald: -fallback-clip must be > 0, got %g", *fbClip)
	}
	requestTimeout = *reqTimeout
	drainTimeout = *drain
	evalLimiter = resilience.NewLimiter(*maxConcurrent, *maxQueue)
	degradeThresholds = resilience.Thresholds{
		ESSRatioFloor:    *essFloor,
		MaxWeightCeiling: *weightCeiling,
		ZeroSupportCap:   *zeroCap,
	}
	fallbackClip = *fbClip
	if *bWindows < 0 {
		log.Fatalf("drevald: -bias-windows must be >= 0, got %d", *bWindows)
	}
	if *bDrift <= 0 {
		log.Fatalf("drevald: -bias-drift-threshold must be > 0, got %g", *bDrift)
	}
	biasWindows = *bWindows
	biasDriftThreshold = *bDrift
	degradeOnDrift = *degradeDrift
	if *eventsBuffer < 1 {
		log.Fatalf("drevald: -events-buffer must be >= 1, got %d", *eventsBuffer)
	}
	if *eventsSample < 0 || *eventsSample > 1 {
		log.Fatalf("drevald: -events-sample must be in [0, 1], got %g", *eventsSample)
	}
	if *eventsSlowMs < 0 {
		log.Fatalf("drevald: -events-slow-ms must be >= 0, got %g", *eventsSlowMs)
	}
	eventJournal = newEventJournal(wideevent.Options{
		Capacity:   *eventsBuffer,
		SampleRate: *eventsSample,
		SlowMs:     *eventsSlowMs,
		Seed:       *eventsSeed,
	})
	if *eventsOut != "" {
		f, err := os.OpenFile(*eventsOut, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			log.Fatalf("drevald: -events-out: %v", err)
		}
		defer func() {
			if err := f.Close(); err != nil {
				srvLog.Error("events-out close failed", "path", *eventsOut, "err", err)
			}
		}()
		eventJournal.SetSink(func(line []byte) { _, _ = f.Write(line) })
		// LIFO: flush the sink's drainer before the file closes.
		defer eventJournal.SetSink(nil)
	}
	if *sloConfig != "" {
		doc, err := os.ReadFile(*sloConfig)
		if err != nil {
			log.Fatalf("drevald: -slo-config: %v", err)
		}
		cfg, err := slo.Parse(doc)
		if err != nil {
			log.Fatalf("drevald: -slo-config: %v", err)
		}
		eng, err := newSLOEngine(cfg)
		if err != nil {
			log.Fatalf("drevald: -slo-config: %v", err)
		}
		sloEngine = eng
	}
	degradeOnSLOPage = *degradeSLOPage
	if *traceBuffer < 1 {
		log.Fatalf("drevald: -trace-buffer must be >= 1, got %d", *traceBuffer)
	}
	if *traceBuffer != traceRecorder.Capacity() {
		traceRecorder = obs.NewTraceRecorder(*traceBuffer)
		obs.Default.SetTraceRecorder(traceRecorder)
	}
	if *traceOut != "" {
		f, err := os.OpenFile(*traceOut, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			log.Fatalf("drevald: -trace-out: %v", err)
		}
		defer func() {
			if err := f.Close(); err != nil {
				srvLog.Error("trace-out close failed", "path", *traceOut, "err", err)
			}
		}()
		traceRecorder.SetSink(func(line []byte) { _, _ = f.Write(line) })
		// LIFO: flush the sink's drainer before the file closes.
		defer traceRecorder.SetSink(nil)
	}
	parallel.SetDefaultWorkers(*workers)
	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		log.Fatalf("drevald: %v", err)
	}
	srvLog.SetLevel(level)

	if *walDir != "" {
		policy, err := walog.ParseFsyncPolicy(*fsync)
		if err != nil {
			log.Fatalf("drevald: -fsync: %v", err)
		}
		if *ingestMax < 1 {
			log.Fatalf("drevald: -ingest-max-bytes must be >= 1, got %d", *ingestMax)
		}
		if *ingestConcurrent < 1 {
			log.Fatalf("drevald: -ingest-max-concurrent must be >= 1, got %d", *ingestConcurrent)
		}
		if *ingestQueue < 0 {
			log.Fatalf("drevald: -ingest-max-queue must be >= 0, got %d", *ingestQueue)
		}
		if *biasRefresh < 0 {
			log.Fatalf("drevald: -bias-refresh must be >= 0, got %d", *biasRefresh)
		}
		ingestMaxBytes = *ingestMax
		ingestLimiter = resilience.NewLimiter(*ingestConcurrent, *ingestQueue)
		eng, err := newStreamEngine(streamConfig{
			Dir:           *walDir,
			Fsync:         policy,
			FsyncInterval: *fsyncInterval,
			SegmentBytes:  *segmentBytes,
			MaxModelAge:   *maxModelAge,
			BiasRefresh:   *biasRefresh,
		})
		if err != nil {
			log.Fatalf("drevald: %v", err)
		}
		streamEng = eng
		defer func() {
			if err := eng.close(); err != nil {
				srvLog.Error("wal close failed", "err", err)
			}
		}()
		srvLog.Info("wal opened", "dir", *walDir, "fsync", policy.String(),
			"segments", eng.recovery.Segments, "frames", eng.recovery.Frames,
			"truncatedBytes", eng.recovery.TruncatedBytes, "manifestOK", eng.recovery.ManifestOK)
		// Replay runs in the background: the server accepts traffic
		// immediately and streaming endpoints answer 503 until the
		// recovered state is complete.
		go func() {
			defer recoverGoroutine("wal-replay")
			eng.replay()
		}()
	}

	srv, err := newServer(*addr)
	if err != nil {
		log.Fatalf("drevald: %v", err)
	}
	if *debugAddr != "" {
		ln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			log.Fatalf("drevald: debug listener: %v", err)
		}
		go func() {
			defer recoverGoroutine("debug-listener")
			if err := http.Serve(ln, newDebugMux()); err != nil && !errors.Is(err, http.ErrServerClosed) {
				srvLog.Error("debug listener failed", "err", err)
			}
		}()
		srvLog.Info("debug listener up", "addr", ln.Addr().String())
	}
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	srvLog.Info("drevald listening", "addr", srv.addr(), "version", obs.Version(), "workers", parallel.DefaultWorkers())
	if err := srv.run(stop); err != nil {
		log.Fatalf("drevald: %v", err)
	}
}

// Resilience knobs, all flag-configurable in main. They are package
// variables so the lifecycle tests can tighten them; production code
// sets them once before serving and never mutates them mid-flight.
var (
	// drainTimeout bounds how long shutdown waits for in-flight
	// requests (-drain-timeout, surfaced in /healthz).
	drainTimeout = 10 * time.Second
	// requestTimeout is the per-request compute deadline for /evaluate
	// and /diagnose (-request-timeout, 0 disables). When it expires the
	// bootstrap stops scheduling new resamples and the handler answers
	// 503 with {"timeout":true}.
	requestTimeout = 60 * time.Second
	// evalLimiter admits /evaluate and /diagnose work: up to
	// -max-concurrent requests compute while -max-queue more wait;
	// beyond that the server sheds with 429 + Retry-After.
	evalLimiter = resilience.NewLimiter(64, 256)
	// degradeThresholds decide when an /evaluate response is tagged
	// degraded and carries a fallback estimate.
	degradeThresholds = resilience.DefaultThresholds()
	// fallbackClip is the weight clip of the degraded-mode fallback
	// estimator (clipped self-normalized IPS).
	fallbackClip = 10.0
	// maxBootstrapResamples caps options.bootstrap so one request
	// cannot monopolize the pool indefinitely.
	maxBootstrapResamples = 10000
)

// server bundles the HTTP server with its listener so tests can bind
// to :0 and drive the full serve/shutdown lifecycle in-process.
type server struct {
	srv *http.Server
	ln  net.Listener
}

func newServer(addr string) (*server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &server{
		srv: &http.Server{
			Handler:           newMux(),
			ReadHeaderTimeout: 5 * time.Second,
			ReadTimeout:       30 * time.Second,
			WriteTimeout:      60 * time.Second,
			IdleTimeout:       2 * time.Minute,
		},
		ln: ln,
	}, nil
}

func (s *server) addr() string { return s.ln.Addr().String() }

// run serves until stop delivers a signal (SIGINT or SIGTERM in
// production), then shuts down gracefully: the listener closes
// immediately and in-flight requests get up to drainTimeout to finish.
func (s *server) run(stop <-chan os.Signal) error {
	serveErr := make(chan error, 1)
	go func() {
		defer recoverGoroutine("serve")
		if err := s.srv.Serve(s.ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
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
	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	return s.srv.Shutdown(ctx)
}

// newMux wires the service handlers — each behind the instrument
// middleware (request IDs, per-route metrics, access logs) — plus the
// observability endpoints; separated from main for testing.
func newMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("GET /healthz", instrument("/healthz", handleHealthz))
	mux.Handle("POST /diagnose", instrument("/diagnose", limited("/diagnose", handleDiagnose)))
	mux.Handle("POST /evaluate", instrument("/evaluate", limited("/evaluate", handleEvaluate)))
	mux.Handle("POST /ingest", instrument("/ingest", limitedBy(ingestLimiterFn, "/ingest", handleIngest)))
	mux.Handle("GET /metrics", instrument("/metrics", handleMetrics))
	mux.Handle("GET /debug/vars", instrument("/debug/vars", handleVars))
	mux.Handle("GET /debug/traces", instrument("/debug/traces", handleTraces))
	mux.Handle("GET /debug/bias", instrument("/debug/bias", handleBias))
	mux.Handle("GET /debug/events", instrument("/debug/events", handleEvents))
	mux.Handle("GET /debug/slo", instrument("/debug/slo", handleSLO))
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

func handleHealthz(w http.ResponseWriter, _ *http.Request) {
	h := healthJSON{
		Status:                "ok",
		UptimeSeconds:         time.Since(serverStart).Seconds(),
		Version:               obs.Version(),
		DrainTimeoutSeconds:   drainTimeout.Seconds(),
		RequestTimeoutSeconds: requestTimeout.Seconds(),
	}
	if ts := lastTraceSummary.Load(); ts != nil {
		h.LastTrace = &lastTraceJSON{
			Records:          ts.records,
			UniqueContexts:   ts.contexts,
			UniqueDecisions:  ts.decisions,
			ViewBuildSeconds: ts.buildSeconds,
			AgeSeconds:       time.Since(ts.when).Seconds(),
		}
	}
	if st := lastBias.Load(); st != nil {
		h.BiasGrade = st.report.Grade
	}
	if eng := streamEng; eng != nil {
		h.WAL = eng.status()
	}
	st := eventJournal.Stats()
	h.Events = &st
	h.SLO = sloEngine.Eval().State
	writeJSON(w, h)
}

// evalOptions mirrors the request "options" object.
type evalOptions struct {
	Clip                 float64 `json:"clip"`
	SelfNormalize        bool    `json:"selfNormalize"`
	EstimatePropensities bool    `json:"estimatePropensities"`
	Bootstrap            int     `json:"bootstrap"`
	Seed                 int64   `json:"seed"`
	// RefreshModel (streamed evaluation only) re-registers the policy
	// fingerprint: the reward model is refit at the current epoch, so
	// the response's staleness resets to zero.
	RefreshModel bool `json:"refreshModel"`
}

// evalRequest is the request body of /evaluate and /diagnose.
type evalRequest struct {
	Trace   []traceio.FlatRecord `json:"trace"`
	Policy  string               `json:"policy"`
	Options evalOptions          `json:"options"`
}

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

// maxBodyBytes bounds request bodies (64 MiB). A variable so tests can
// lower it to exercise the 413 path without a 64 MiB payload.
var maxBodyBytes int64 = 64 << 20

// parseEvalRequest decodes and validates an /evaluate or /diagnose
// request body. It is independent of net/http so the fuzz harness can
// drive it with arbitrary bytes: malformed input must produce an error,
// never a panic.
func parseEvalRequest(body io.Reader) (*evalRequest, core.Trace[traceio.FlatContext, string], core.Policy[traceio.FlatContext, string], error) {
	req, err := decodeEvalBody(body)
	if err != nil {
		return nil, nil, nil, err
	}
	trace, policy, err := buildEvalInputs(req)
	if err != nil {
		return nil, nil, nil, err
	}
	return req, trace, policy, nil
}

// decodeEvalBody is the pure JSON step of parseEvalRequest, split out
// so the handlers can branch to streamed evaluation (empty trace + an
// active engine) before batch validation rejects the empty trace.
func decodeEvalBody(body io.Reader) (*evalRequest, error) {
	var req evalRequest
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		// %w so decodeRequest can distinguish an oversized body
		// (*http.MaxBytesError → 413) from plain bad JSON (400).
		return nil, fmt.Errorf("invalid request body: %w", err)
	}
	return &req, nil
}

// validateFiniteRecords rejects non-finite numerics up front with a
// record-addressed message. Standard JSON cannot encode NaN/Inf, but
// permissive clients exist and a NaN that slips past here poisons
// every weighted sum downstream. Shared by /evaluate, /diagnose and
// /ingest.
func validateFiniteRecords(records []traceio.FlatRecord) error {
	for i, rec := range records {
		if math.IsNaN(rec.Reward) || math.IsInf(rec.Reward, 0) {
			return fmt.Errorf("record %d: reward must be finite, got %g", i, rec.Reward)
		}
		if math.IsNaN(rec.Propensity) || math.IsInf(rec.Propensity, 0) {
			return fmt.Errorf("record %d: propensity must be finite, got %g", i, rec.Propensity)
		}
		for j, f := range rec.Features {
			if math.IsNaN(f) || math.IsInf(f, 0) {
				return fmt.Errorf("record %d: feature %d must be finite, got %g", i, j, f)
			}
		}
	}
	return nil
}

// buildEvalInputs is the validation half of parseEvalRequest: it turns
// a decoded batch request into a validated trace and parsed policy.
func buildEvalInputs(req *evalRequest) (core.Trace[traceio.FlatContext, string], core.Policy[traceio.FlatContext, string], error) {
	if len(req.Trace) == 0 {
		return nil, nil, errors.New("empty trace")
	}
	if err := validateFiniteRecords(req.Trace); err != nil {
		return nil, nil, err
	}
	if req.Options.Bootstrap < 0 {
		return nil, nil, fmt.Errorf("options.bootstrap must not be negative, got %d", req.Options.Bootstrap)
	}
	if req.Options.Bootstrap > maxBootstrapResamples {
		return nil, nil, fmt.Errorf("options.bootstrap %d exceeds the maximum of %d resamples", req.Options.Bootstrap, maxBootstrapResamples)
	}
	trace := traceio.ToCore(traceio.FlatTrace{Records: req.Trace})
	if req.Options.EstimatePropensities {
		if err := core.EstimatePropensities(trace, func(c traceio.FlatContext) string {
			return c.Key()
		}, 5, 1e-3); err != nil {
			return nil, nil, fmt.Errorf("propensity estimation: %v", err)
		}
	}
	if err := trace.Validate(); err != nil {
		return nil, nil, fmt.Errorf("%v (set options.estimatePropensities if the trace has none)", err)
	}
	policy, err := traceio.ParsePolicy(req.Policy, trace)
	if err != nil {
		return nil, nil, err
	}
	return trace, policy, nil
}

// decodeRequest decodes an /evaluate or /diagnose body. When the trace
// is empty and streaming is active it dispatches to streamed (the
// aggregate-serving handler) and reports handled=true; otherwise it
// validates the batch inputs, writing the error response itself on
// failure (400, or 413 for an oversized body).
func decodeRequest(w http.ResponseWriter, r *http.Request, streamed func(http.ResponseWriter, *http.Request, *evalRequest)) (*evalRequest, core.Trace[traceio.FlatContext, string], core.Policy[traceio.FlatContext, string], bool) {
	req, err := decodeEvalBody(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		code := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		httpError(w, code, err.Error())
		return nil, nil, nil, false
	}
	if len(req.Trace) == 0 && streamEng != nil {
		streamed(w, r, req)
		return nil, nil, nil, false
	}
	trace, policy, err := buildEvalInputs(req)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return nil, nil, nil, false
	}
	return req, trace, policy, true
}

// requestCtx derives the compute context for /evaluate and /diagnose:
// the request's own context (cancelled when the client disconnects)
// bounded by -request-timeout. Estimators and the bootstrap stop
// scheduling work within one chunk boundary once it ends.
func requestCtx(r *http.Request) (context.Context, context.CancelFunc) {
	if requestTimeout <= 0 {
		return context.WithCancel(r.Context())
	}
	return context.WithTimeout(r.Context(), requestTimeout)
}

// writeEvalError renders a compute-path failure. Context expiry becomes
// 503 with a machine-readable flag ({"timeout":true} for a deadline,
// {"canceled":true} for client abandonment) so callers and the CI smoke
// test can distinguish overload from bad input; everything else is the
// usual 422.
func writeEvalError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		timeoutsTotal.Inc()
		writeJSONStatus(w, http.StatusServiceUnavailable, evalErrorJSON{
			Error:   "request deadline exceeded before evaluation finished",
			Timeout: true,
		})
	case errors.Is(err, context.Canceled):
		canceledTotal.Inc()
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

// timed runs one evaluation phase as a named child span of the
// request's root span (started by the instrument middleware), marking
// the span failed when the phase errors. The same name accumulates
// into the request's wide event as a phaseMs entry, read from ctx —
// one instrumentation point feeds both the span tree and the journal.
// With no root span in the context, StartChild degrades to a fresh
// root, so the phase is still measured; with no wide-event builder,
// the phase hook is a no-op.
func timed[T any](ctx context.Context, parent *obs.Span, name string, fn func() (T, error)) (T, error) {
	endPhase := wideevent.FromContext(ctx).Phase(name)
	defer endPhase()
	sp := parent.StartChild(name)
	defer sp.End()
	v, err := fn()
	if err != nil {
		sp.SetError(err.Error())
	}
	return v, err
}

// recoverGoroutine is the deferred first statement of every background
// goroutine this command starts: a panic escaping a goroutine kills the
// whole process, so record it in the panic counter and the log instead.
func recoverGoroutine(name string) {
	if v := recover(); v != nil {
		panicsTotal.Inc()
		srvLog.Error("goroutine panicked", "goroutine", name, "panic", fmt.Sprint(v))
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

func handleDiagnose(w http.ResponseWriter, r *http.Request) {
	req, trace, policy, ok := decodeRequest(w, r, handleStreamDiagnose)
	if !ok {
		return
	}
	ctx, cancel := requestCtx(r)
	defer cancel()
	root := obs.SpanFromContext(r.Context())
	buildStart := time.Now()
	view, err := timed(ctx, root, "build_view", func() (*core.TraceView[traceio.FlatContext, string], error) {
		return core.NewTraceViewKeyedCtx(ctx, trace, traceio.FlatContext.Key)
	})
	if err != nil {
		writeEvalError(w, err)
		return
	}
	recordTraceSummary(view, time.Since(buildStart))
	diag, err := timed(ctx, root, "diagnose", func() (core.Diagnostics, error) {
		return core.DiagnoseViewCtx(ctx, view, policy)
	})
	if err != nil {
		writeEvalError(w, err)
		return
	}
	health, err := observeBias(ctx, root, requestID(r), view, policy)
	if err != nil {
		writeEvalError(w, err)
		return
	}
	evb := wideevent.FromContext(r.Context())
	evb.SetPolicy(req.Policy)
	evb.SetRegime(diag.ESS/float64(diag.N), diag.MaxWeight, diag.ZeroSupport)
	if health != nil {
		evb.SetBiasGrade(health.Grade)
	}
	writeJSON(w, diagnoseResponse{diagnosticsJSON: diagJSON(diag), TraceHealth: health})
}

func handleEvaluate(w http.ResponseWriter, r *http.Request) {
	req, trace, policy, ok := decodeRequest(w, r, handleStreamEvaluate)
	if !ok {
		return
	}
	ctx, cancel := requestCtx(r)
	defer cancel()
	root := obs.SpanFromContext(r.Context())
	evb := wideevent.FromContext(r.Context())
	evb.SetPolicy(req.Policy)
	// Columnar hot path: intern the trace once, then every phase below
	// (diagnostics, model fit, estimators, bootstrap) reads the shared
	// view.
	buildStart := time.Now()
	view, err := timed(ctx, root, "build_view", func() (*core.TraceView[traceio.FlatContext, string], error) {
		return core.NewTraceViewKeyedCtx(ctx, trace, traceio.FlatContext.Key)
	})
	if err != nil {
		writeEvalError(w, err)
		return
	}
	recordTraceSummary(view, time.Since(buildStart))
	diag, err := timed(ctx, root, "diagnose", func() (core.Diagnostics, error) {
		return core.DiagnoseViewCtx(ctx, view, policy)
	})
	if err != nil {
		writeEvalError(w, err)
		return
	}
	health, err := observeBias(ctx, root, requestID(r), view, policy)
	if err != nil {
		writeEvalError(w, err)
		return
	}
	// Export the request's overlap regime — the continuously watched
	// version of the diagnostics this response returns once — and stamp
	// the same numbers onto the request's wide event.
	evalESSRatio.Observe(diag.ESS / float64(diag.N))
	evalMaxWeight.Observe(diag.MaxWeight)
	evalZeroSupport.Observe(float64(diag.ZeroSupport))
	evb.SetRegime(diag.ESS/float64(diag.N), diag.MaxWeight, diag.ZeroSupport)
	if health != nil {
		evb.SetBiasGrade(health.Grade)
	}
	if srvLog.Enabled(obs.LevelDebug) {
		srvLog.Debug("evaluate diagnostics", "id", requestID(r),
			"n", diag.N, "essRatio", diag.ESS/float64(diag.N),
			"maxWeight", diag.MaxWeight, "zeroSupport", diag.ZeroSupport)
	}
	model, err := timed(ctx, root, "fit_model", func() (*core.ViewTableModel[traceio.FlatContext, string], error) {
		return core.FitTableViewCtx(ctx, view)
	})
	if err != nil {
		writeEvalError(w, err)
		return
	}
	dm, err := timed(ctx, root, "direct_method", func() (core.Estimate, error) {
		return core.DirectMethodViewCtx(ctx, view, policy, model)
	})
	if err != nil {
		writeEvalError(w, err)
		return
	}
	ips, err := timed(ctx, root, "ips", func() (core.Estimate, error) {
		return core.IPSViewCtx(ctx, view, policy, core.IPSOptions{Clip: req.Options.Clip, SelfNormalize: req.Options.SelfNormalize})
	})
	if err != nil {
		writeEvalError(w, err)
		return
	}
	dr, err := timed(ctx, root, "doubly_robust", func() (core.Estimate, error) {
		return core.DoublyRobustViewCtx(ctx, view, policy, model, core.DROptions{Clip: req.Options.Clip, SelfNormalize: req.Options.SelfNormalize})
	})
	if err != nil {
		writeEvalError(w, err)
		return
	}
	resp := evalResponse{DM: toJSON(dm), IPS: toJSON(ips), DR: toJSON(dr), Diagnostics: diagJSON(diag), TraceHealth: health}
	// Graceful degradation: when the overlap diagnostics cross a
	// configured threshold the response still carries every requested
	// estimate, but is tagged degraded with machine-readable reasons
	// and a variance-robust fallback — never a bare error.
	reasons := degradeThresholds.Check(diag.N, diag.ESS, diag.MaxWeight, diag.ZeroSupport)
	// Optional drift escalation: a fired windowed-drift alarm means the
	// trace mixes regimes, so whole-trace estimates are suspect even
	// when every overlap diagnostic looks fine.
	if degradeOnDrift && health != nil && health.Alarms > 0 {
		reasons = append(reasons, resilience.DriftReason(health.Alarms, biasDriftThreshold))
	}
	// Optional SLO escalation (-degrade-on-slo-page): a page-severity
	// budget burn tags every response until it clears.
	reasons = append(reasons, sloDegradeReasons()...)
	if len(reasons) > 0 {
		// The degraded path is an error from the observability side even
		// though the response is a 200: mark the request's root span so
		// obs_span_errors_total{span="http/evaluate"} and the timeline
		// surface it.
		root.Attr("degraded", "true")
		root.SetError("degraded: overlap diagnostics crossed thresholds")
		fb, err := timed(ctx, root, "fallback", func() (core.Estimate, error) {
			return core.IPSViewCtx(ctx, view, policy, core.IPSOptions{Clip: fallbackClip, SelfNormalize: true})
		})
		if err != nil {
			writeEvalError(w, err)
			return
		}
		resp.Degraded = true
		resp.DegradedReasons = reasons
		resp.FallbackEstimator = "snips-clip"
		resp.Fallback = &fallbackJSON{Estimator: resp.FallbackEstimator, Estimate: toJSON(fb)}
		evb.SetDegraded(reasonCodes(reasons))
		evb.SetFallback(resp.FallbackEstimator)
		degradedTotal.Inc()
		srvLog.Warn("degraded response", "id", requestID(r), "reasons", len(reasons))
	}
	if b := req.Options.Bootstrap; b > 0 {
		seed := req.Options.Seed
		if seed == 0 {
			seed = 1
		}
		// Sharded bootstrap: resamples run on the worker pool, one PCG
		// stream per resample, so the interval depends only on the seed.
		ci, stats, err := func() (core.Interval, core.BootstrapStats, error) {
			defer evb.Phase("drevald_bootstrap")()
			sp := root.StartChild("drevald_bootstrap").
				Attr("resamples", fmt.Sprint(b))
			defer sp.End()
			// Refit-DR bootstrap by index over the view: running
			// sufficient statistics per resample, no record copies.
			// Bit-identical to the former FitTable + DoublyRobust
			// closure (the per-(context, decision) key was injective).
			ci, stats, err := core.BootstrapDRViewSeededStatsCtx(ctx, view, policy,
				core.DROptions{Clip: req.Options.Clip, SelfNormalize: req.Options.SelfNormalize}, seed, b, 0.95)
			if err != nil {
				sp.SetError(err.Error())
			}
			return ci, stats, err
		}()
		bootResamples.Add(uint64(stats.Resamples))
		bootSkipped.Add(uint64(stats.Skipped))
		evb.SetBootstrap(stats.Resamples, stats.Skipped)
		if err != nil {
			writeEvalError(w, err)
			return
		}
		resp.DRInterval = &intervalJSON{Lo: ci.Lo, Hi: ci.Hi, Level: ci.Level}
		resp.BootstrapSkipped = &stats.Skipped
	}
	writeJSON(w, resp)
}

func diagJSON(d core.Diagnostics) diagnosticsJSON {
	return diagnosticsJSON{
		N: d.N, ESS: d.ESS, MatchRate: d.MatchRate, MeanWeight: d.MeanWeight,
		MaxWeight: d.MaxWeight, ZeroSupport: d.ZeroSupport, MinPropensity: d.MinPropensity,
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		log.Printf("drevald: encoding response: %v", err)
	}
}

// writeJSONStatus is writeJSON with an explicit status code.
func writeJSONStatus(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		log.Printf("drevald: encoding response: %v", err)
	}
}

func httpError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": msg})
}
