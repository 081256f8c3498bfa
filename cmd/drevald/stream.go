package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"drnet/internal/biasobs"
	"drnet/internal/core"
	"drnet/internal/obs"
	"drnet/internal/resilience"
	"drnet/internal/traceio"
	"drnet/internal/walog"
	"drnet/internal/wideevent"
)

// Streaming ingestion: with -wal-dir set, drevald accepts record
// batches on POST /ingest, makes them durable in a walog segment log
// BEFORE acking, folds them into an appendable columnar view plus
// per-policy running sufficient statistics, and serves /evaluate and
// /diagnose requests with an EMPTY trace from those aggregates in O(1)
// — with epoch/staleness metadata in every streamed response. On
// restart the WAL is replayed into the same in-memory state; ingest
// and streamed evaluation answer 503 until replay finishes.

// Streaming knobs, flag-configured in main. Package variables so the
// lifecycle tests can tighten them, like the resilience knobs.
var (
	// streamEng is the process-wide streaming engine; nil when -wal-dir
	// is unset (streaming endpoints answer 404).
	streamEng *streamEngine
	// ingestLimiter admits /ingest work independently of the compute
	// limiter, so a burst of writers cannot starve evaluation (or vice
	// versa). Shed requests get 429 + Retry-After.
	ingestLimiter = resilience.NewLimiter(16, 64)
	// ingestMaxBytes bounds one /ingest body (-ingest-max-bytes);
	// larger bodies get 413.
	ingestMaxBytes int64 = 16 << 20
)

// Streaming metrics: ingest volume, durability failures, replay
// progress and the live epoch, so the WAL's health is scrapeable.
var (
	ingestRecordsTotal   = obs.Default.Counter("drevald_ingest_records_total")
	ingestBatchesTotal   = obs.Default.Counter("drevald_ingest_batches_total")
	walAppendErrorsTotal = obs.Default.Counter("drevald_wal_append_errors_total")
	replayRecordsTotal   = obs.Default.Counter("drevald_wal_replay_records_total")
	streamEpochGauge     = obs.Default.Gauge("drevald_stream_epoch")
	streamPoliciesGauge  = obs.Default.Gauge("drevald_stream_policies")
	walBytesGauge        = obs.Default.Gauge("drevald_wal_bytes")
	walSegmentsGauge     = obs.Default.Gauge("drevald_wal_segments")
)

func init() {
	obs.Default.Help("drevald_ingest_records_total", "Records durably ingested and folded into streaming aggregates.")
	obs.Default.Help("drevald_ingest_batches_total", "Ingest batches acked (one WAL frame each).")
	obs.Default.Help("drevald_wal_append_errors_total", "Ingest batches refused because the WAL append or fsync failed.")
	obs.Default.Help("drevald_wal_replay_records_total", "Records recovered from the WAL during startup replay.")
	obs.Default.Help("drevald_stream_epoch", "Records in the streaming view (replayed + ingested).")
	obs.Default.Help("drevald_stream_policies", "Policy fingerprints with live streaming aggregates.")
	obs.Default.Help("drevald_wal_bytes", "Total valid bytes across all WAL segments.")
	obs.Default.Help("drevald_wal_segments", "WAL segment files on disk.")
}

// streamConfig is everything main resolves from flags for the engine.
type streamConfig struct {
	Dir           string
	Fsync         walog.FsyncPolicy
	FsyncInterval time.Duration
	SegmentBytes  int64
	// MaxModelAge degrades streamed responses whose frozen reward model
	// is more than this many records behind the live epoch (0 = never).
	MaxModelAge uint64
	// BiasRefresh reruns the bias observatory over the streamed view
	// every this many ingested records (0 = disabled).
	BiasRefresh int
}

// streamPolicy is one registered (policy, clip) fingerprint: a frozen
// reward model plus the running sufficient statistics that answer
// evaluation queries in O(1). Guarded by streamEngine.mu.
type streamPolicy struct {
	fingerprint string
	spec        string
	policy      core.Policy[traceio.FlatContext, string]
	model       *core.ViewTableModel[traceio.FlatContext, string]
	eval        *core.StreamEval[traceio.FlatContext, string]
	// modelEpoch is the record count the reward model was fit at; the
	// gap to the live epoch is the staleness every response reports.
	modelEpoch int
}

// streamEngine owns the WAL, the appendable view and the per-policy
// aggregates. One mutex serializes ingest, registration and O(1) reads
// so WAL order, fold order and replay order are the same total order —
// the property that makes crash replay bit-exact.
type streamEngine struct {
	wal      *walog.Log
	recovery walog.Recovery
	cfg      streamConfig

	replaying atomic.Bool
	replayed  atomic.Uint64

	mu            sync.Mutex
	builder       *core.ViewBuilder[traceio.FlatContext, string] // guarded by mu
	records       core.Trace[traceio.FlatContext, string]        // guarded by mu
	evals         map[string]*streamPolicy                       // guarded by mu
	replayErr     error                                          // guarded by mu
	lastBiasEpoch int                                            // guarded by mu
	biasBusy      atomic.Bool
}

// newStreamEngine opens (and recovers) the WAL. Call replay next —
// until it finishes, ingest and streamed evaluation answer 503.
func newStreamEngine(cfg streamConfig) (*streamEngine, error) {
	l, rec, err := walog.Open(walog.Options{
		Dir:           cfg.Dir,
		SegmentBytes:  cfg.SegmentBytes,
		Fsync:         cfg.Fsync,
		FsyncInterval: cfg.FsyncInterval,
	})
	if err != nil {
		return nil, err
	}
	e := &streamEngine{
		wal:      l,
		recovery: rec,
		cfg:      cfg,
		builder:  core.NewViewBuilderKeyed[traceio.FlatContext, string](traceio.FlatContext.Key),
		evals:    make(map[string]*streamPolicy),
	}
	e.replaying.Store(true)
	return e, nil
}

// replay folds every WAL frame back into the in-memory view, in frame
// order — the same order ingest applied them, so the rebuilt state is
// bit-identical to the pre-crash state (core's replay equivalence
// test). Runs once, before any ingest is admitted.
func (e *streamEngine) replay() {
	defer e.replaying.Store(false)
	err := e.wal.ReadAll(func(seq uint64, payload []byte) error {
		flat, err := traceio.DecodeBatch(payload)
		if err != nil {
			return fmt.Errorf("frame %d: %w", seq, err)
		}
		trace := traceio.ToCore(traceio.FlatTrace{Records: flat})
		e.mu.Lock()
		defer e.mu.Unlock()
		for _, rec := range trace {
			if err := e.builder.Append(rec); err != nil {
				return fmt.Errorf("frame %d: %w", seq, err)
			}
		}
		e.records = append(e.records, trace...)
		e.replayed.Add(uint64(len(trace)))
		replayRecordsTotal.Add(uint64(len(trace)))
		return nil
	})
	e.mu.Lock()
	defer e.mu.Unlock()
	e.replayErr = err
	streamEpochGauge.Set(float64(e.builder.Len()))
	walBytesGauge.Set(float64(e.wal.Bytes()))
	walSegmentsGauge.Set(float64(e.wal.Segments()))
	if err != nil {
		srvLog.Error("wal replay failed", "err", err)
		return
	}
	srvLog.Info("wal replay complete",
		"records", e.builder.Len(),
		"frames", e.wal.Seq(),
		"segments", e.wal.Segments(),
		"truncatedBytes", e.recovery.TruncatedBytes,
	)
}

// ready returns the 503 body to serve when the engine cannot accept
// stream traffic yet (replay in progress) or ever (replay failed), nil
// when it is serving.
func (e *streamEngine) ready() *streamUnavailableJSON {
	if e.replaying.Load() {
		return &streamUnavailableJSON{Error: "wal replay in progress, retry shortly", Replaying: true}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.replayErr != nil {
		return &streamUnavailableJSON{Error: "wal replay failed: " + e.replayErr.Error()}
	}
	return nil
}

// streamUnavailableJSON is the 503 body of streaming endpoints.
type streamUnavailableJSON struct {
	Error     string `json:"error"`
	Replaying bool   `json:"replaying,omitempty"`
}

// ingestResult describes one acked batch.
type ingestResult struct {
	acked   int
	seq     uint64
	segment string
	durable bool
	epoch   int
}

// errNotDurable wraps WAL failures so the handler can answer 503 (the
// data is not safe; the client must retry) instead of 422.
var errNotDurable = errors.New("drevald: batch not durable")

// ingest makes one validated batch durable and folds it into the view
// and every registered aggregate, all under one lock hold so the WAL
// order equals the fold order. The records MUST already have passed
// Trace.Validate — ViewBuilder.Append applies the identical checks, so
// post-WAL validation failures are impossible and the WAL never holds
// a batch replay would reject.
func (e *streamEngine) ingest(flat []traceio.FlatRecord, trace core.Trace[traceio.FlatContext, string]) (ingestResult, error) {
	payload := traceio.EncodeBatch(nil, flat)
	e.mu.Lock()
	defer e.mu.Unlock()
	res, err := e.wal.Append(payload)
	if err != nil {
		walAppendErrorsTotal.Inc()
		return ingestResult{}, fmt.Errorf("%w: %v", errNotDurable, err)
	}
	from := e.builder.Len()
	for _, rec := range trace {
		if err := e.builder.Append(rec); err != nil {
			// Unreachable after Trace.Validate; if it ever fires the
			// in-memory state no longer matches the WAL, so fail loudly.
			return ingestResult{}, fmt.Errorf("drevald: durable batch rejected by view (state diverged, restart to replay): %v", err)
		}
	}
	e.records = append(e.records, trace...)
	snap := e.builder.Snapshot()
	for _, sp := range e.evals {
		if err := sp.eval.Apply(snap, from); err != nil {
			return ingestResult{}, fmt.Errorf("drevald: folding batch into %s: %v", sp.fingerprint, err)
		}
	}
	epoch := e.builder.Len()
	ingestBatchesTotal.Inc()
	ingestRecordsTotal.Add(uint64(len(trace)))
	streamEpochGauge.Set(float64(epoch))
	walBytesGauge.Set(float64(e.wal.Bytes()))
	walSegmentsGauge.Set(float64(e.wal.Segments()))
	e.maybeRefreshBiasLocked(snap, epoch)
	return ingestResult{
		acked:   len(trace),
		seq:     res.Seq,
		segment: res.Segment,
		durable: res.Synced,
		epoch:   epoch,
	}, nil
}

// maybeRefreshBiasLocked reruns the bias observatory over the streamed
// view every cfg.BiasRefresh ingested records, publishing to the same
// lastBias/metrics surface the request path uses — live bias windows
// over the stream instead of per-request traces. The O(n) compute runs
// off the ingest path; at most one refresh is in flight.
func (e *streamEngine) maybeRefreshBiasLocked(snap *core.TraceView[traceio.FlatContext, string], epoch int) {
	if e.cfg.BiasRefresh <= 0 || biasWindows <= 0 || len(e.evals) == 0 {
		return
	}
	if epoch-e.lastBiasEpoch < e.cfg.BiasRefresh {
		return
	}
	sp := e.oldestPolicyLocked()
	if !e.biasBusy.CompareAndSwap(false, true) {
		return // previous refresh still running; next batch retries
	}
	e.lastBiasEpoch = epoch
	go func() {
		defer recoverGoroutine("bias-refresh")
		defer e.biasBusy.Store(false)
		e.refreshBias(snap, sp, epoch)
	}()
}

// oldestPolicyLocked picks the registered policy with the smallest
// model epoch (ties broken by fingerprint) — a deterministic choice of
// whose lens the streamed observatory report uses.
func (e *streamEngine) oldestPolicyLocked() *streamPolicy {
	var best *streamPolicy
	for _, sp := range e.evals {
		//lint:allow nondet (modelEpoch, fingerprint) is a total order: fingerprints are the map's distinct keys plus an epoch
		if best == nil || sp.modelEpoch < best.modelEpoch ||
			(sp.modelEpoch == best.modelEpoch && sp.fingerprint < best.fingerprint) {
			best = sp
		}
	}
	return best
}

// refreshBias computes the windowed observatory report over one
// snapshot and publishes it (/debug/bias, /healthz biasGrade and the
// drevald_bias_* gauges), stamped with the epoch instead of a request.
func (e *streamEngine) refreshBias(snap *core.TraceView[traceio.FlatContext, string], sp *streamPolicy, epoch int) {
	report, err := biasobs.Compute(snap, sp.policy, biasobs.Config{
		Windows:        biasWindows,
		DriftThreshold: biasDriftThreshold,
	})
	if err != nil {
		srvLog.Warn("stream bias refresh failed", "epoch", epoch, "err", err)
		return
	}
	lastBias.Store(&biasState{report: report, requestID: fmt.Sprintf("ingest@epoch=%d", epoch), when: time.Now()})
	s := report.Summary()
	biasM.reports.Inc()
	biasM.alarms.Add(uint64(s.Alarms))
	biasM.grade.Set(gradeValue(s.Grade))
	biasM.minESS.Set(s.MinESSRatio)
	biasM.maxZero.Set(s.MaxZeroSupportFrac)
	biasM.windows.Set(float64(s.Windows))
	if s.Grade != biasobs.GradeHealthy {
		srvLog.Warn("stream bias observatory", "epoch", epoch, "grade", s.Grade, "alarms", s.Alarms)
	}
}

// streamResult is one O(1) read of a fingerprint's aggregates.
type streamResult struct {
	est         core.StreamEstimates
	epoch       int
	modelEpoch  int
	fingerprint string
}

// evaluate serves one streamed query: it registers the (policy, clip)
// fingerprint on first use (one O(n) catch-up fold, holding the lock
// so no batch is missed or double-counted) and afterwards answers from
// running aggregates in O(1). refresh forces a re-registration —
// refitting the reward model at the current epoch, which resets
// staleness to zero.
func (e *streamEngine) evaluate(spec string, clip float64, refresh bool) (streamResult, error) {
	key := spec + "|clip=" + strconv.FormatFloat(clip, 'g', -1, 64)
	e.mu.Lock()
	defer e.mu.Unlock()
	sp, ok := e.evals[key]
	if !ok || refresh {
		if e.builder.Len() == 0 {
			return streamResult{}, errors.New("stream is empty: ingest records before evaluating without a trace")
		}
		policy, err := traceio.ParsePolicy(spec, e.records)
		if err != nil {
			return streamResult{}, err
		}
		snap := e.builder.Snapshot()
		model := core.FitTableView(snap)
		eval := core.NewStreamEval(policy, model, core.StreamOptions{Clip: clip})
		if err := eval.Apply(snap, 0); err != nil {
			return streamResult{}, err
		}
		sp = &streamPolicy{
			fingerprint: fmt.Sprintf("%s@%d", key, snap.Len()),
			spec:        spec,
			policy:      policy,
			model:       model,
			eval:        eval,
			modelEpoch:  snap.Len(),
		}
		e.evals[key] = sp
		streamPoliciesGauge.Set(float64(len(e.evals)))
		srvLog.Info("stream policy registered", "fingerprint", sp.fingerprint, "records", snap.Len())
	}
	est, err := sp.eval.Estimates()
	if err != nil {
		return streamResult{}, err
	}
	return streamResult{
		est:         est,
		epoch:       e.builder.Len(),
		modelEpoch:  sp.modelEpoch,
		fingerprint: sp.fingerprint,
	}, nil
}

// walJSON is the /healthz wal block.
type walJSON struct {
	Enabled         bool   `json:"enabled"`
	Replaying       bool   `json:"replaying"`
	ReplayError     string `json:"replayError,omitempty"`
	Epoch           int    `json:"epoch"`
	ReplayedRecords uint64 `json:"replayedRecords"`
	Frames          uint64 `json:"frames"`
	Segments        int    `json:"segments"`
	Bytes           int64  `json:"bytes"`
	TruncatedBytes  int64  `json:"truncatedBytes"`
	Fsync           string `json:"fsync"`
	Policies        int    `json:"policies"`
}

// status snapshots the engine for /healthz.
func (e *streamEngine) status() *walJSON {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := &walJSON{
		Enabled:         true,
		Replaying:       e.replaying.Load(),
		Epoch:           e.builder.Len(),
		ReplayedRecords: e.replayed.Load(),
		Frames:          e.wal.Seq(),
		Segments:        e.wal.Segments(),
		Bytes:           e.wal.Bytes(),
		TruncatedBytes:  e.recovery.TruncatedBytes,
		Fsync:           e.cfg.Fsync.String(),
		Policies:        len(e.evals),
	}
	if e.replayErr != nil {
		out.ReplayError = e.replayErr.Error()
	}
	return out
}

// close flushes and closes the WAL (shutdown path).
func (e *streamEngine) close() error {
	return e.wal.Close()
}

// ingestRequest is the POST /ingest body.
type ingestRequest struct {
	Records []traceio.FlatRecord `json:"records"`
}

// ingestResponse is the POST /ingest ack. Durable is true when the
// batch was fsynced before the ack (-fsync always); under interval or
// never policies it reports that durability is deferred.
type ingestResponse struct {
	Acked   int    `json:"acked"`
	Seq     uint64 `json:"seq"`
	Segment string `json:"segment"`
	Durable bool   `json:"durable"`
	Epoch   int    `json:"epoch"`
}

// handleIngest accepts one record batch, makes it durable, folds it
// into the streaming aggregates and acks with the new epoch. Ordered
// error surface: 404 streaming disabled, 503 replaying/not-durable,
// 413 oversized body, 400 malformed, 422 invalid records, 429 via the
// ingest limiter in the middleware.
func handleIngest(w http.ResponseWriter, r *http.Request) {
	eng := streamEng
	if eng == nil {
		httpError(w, http.StatusNotFound, "streaming ingestion disabled (-wal-dir not set)")
		return
	}
	if un := eng.ready(); un != nil {
		w.Header().Set("Retry-After", "1")
		writeJSONStatus(w, http.StatusServiceUnavailable, un)
		return
	}
	var req ingestRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, ingestMaxBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		code := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		httpError(w, code, "invalid request body: "+err.Error())
		return
	}
	if len(req.Records) == 0 {
		httpError(w, http.StatusBadRequest, "empty batch")
		return
	}
	if err := traceio.ValidateFinite(req.Records); err != nil {
		httpError(w, http.StatusUnprocessableEntity, err.Error())
		return
	}
	trace := traceio.ToCore(traceio.FlatTrace{Records: req.Records})
	if err := trace.Validate(); err != nil {
		httpError(w, http.StatusUnprocessableEntity, err.Error())
		return
	}
	root := obs.SpanFromContext(r.Context())
	res, err := timed(r.Context(), root, "durable_ingest", func() (ingestResult, error) {
		return eng.ingest(req.Records, trace)
	})
	if err != nil {
		if errors.Is(err, errNotDurable) {
			w.Header().Set("Retry-After", "1")
			writeJSONStatus(w, http.StatusServiceUnavailable, map[string]string{"error": err.Error()})
			return
		}
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	if srvLog.Enabled(obs.LevelDebug) {
		srvLog.Debug("ingest", "id", requestID(r), "acked", res.acked, "seq", res.seq, "epoch", res.epoch)
	}
	wideevent.FromContext(r.Context()).SetWALAck(res.seq, res.epoch, res.segment, res.durable)
	writeJSON(w, ingestResponse{
		Acked:   res.acked,
		Seq:     res.seq,
		Segment: res.segment,
		Durable: res.durable,
		Epoch:   res.epoch,
	})
}

// streamMetaJSON is the metadata block every streamed response
// carries: which aggregate answered, how many records it covers and
// how stale its frozen reward model is.
type streamMetaJSON struct {
	Fingerprint string `json:"fingerprint"`
	Epoch       int    `json:"epoch"`
	ModelEpoch  int    `json:"modelEpoch"`
	// StalenessRecords is epoch − modelEpoch: how many records arrived
	// since the DM/DR reward model was frozen. Above -max-model-age the
	// response is degraded with a stale_aggregates reason.
	StalenessRecords int `json:"stalenessRecords"`
}

// handleStreamEvaluate serves /evaluate with an empty trace from the
// streaming aggregates: O(1) per request after the fingerprint's first
// use. SelfNormalize selects the SNIPS/SN-DR variants exactly as it
// does for the batch path; bootstrap and propensity estimation need
// the raw records and are rejected.
func handleStreamEvaluate(w http.ResponseWriter, r *http.Request, req *evalRequest) {
	eng := streamEng
	if un := eng.ready(); un != nil {
		w.Header().Set("Retry-After", "1")
		writeJSONStatus(w, http.StatusServiceUnavailable, un)
		return
	}
	if req.Options.Bootstrap != 0 {
		httpError(w, http.StatusBadRequest, "options.bootstrap is unavailable for streamed evaluation (send the trace inline to bootstrap)")
		return
	}
	if req.Options.EstimatePropensities {
		httpError(w, http.StatusBadRequest, "options.estimatePropensities is unavailable for streamed evaluation (propensities must be logged at ingest)")
		return
	}
	root := obs.SpanFromContext(r.Context())
	sr, err := timed(r.Context(), root, "stream_evaluate", func() (streamResult, error) {
		return eng.evaluate(req.Policy, req.Options.Clip, req.Options.RefreshModel)
	})
	if err != nil {
		writeEvalError(w, err)
		return
	}
	est := sr.est
	ips, dr := est.IPS, est.DR
	if req.Options.SelfNormalize {
		ips, dr = est.SNIPS, est.SNDR
	}
	diag := est.Diagnostics
	staleness := sr.epoch - sr.modelEpoch
	evb := wideevent.FromContext(r.Context())
	evb.SetPolicy(req.Policy)
	evb.SetStream(sr.epoch, sr.modelEpoch, staleness)
	resp := evalResponse{
		DM:          toJSON(est.DM),
		IPS:         toJSON(ips),
		DR:          toJSON(dr),
		Diagnostics: diagJSON(diag),
		Stream: &streamMetaJSON{
			Fingerprint:      sr.fingerprint,
			Epoch:            sr.epoch,
			ModelEpoch:       sr.modelEpoch,
			StalenessRecords: staleness,
		},
	}
	evalESSRatio.Observe(diag.ESS / float64(diag.N))
	evalMaxWeight.Observe(diag.MaxWeight)
	evalZeroSupport.Observe(float64(diag.ZeroSupport))
	evb.SetRegime(diag.ESS/float64(diag.N), diag.MaxWeight, diag.ZeroSupport)
	reasons := degradeThresholds.Check(diag.N, diag.ESS, diag.MaxWeight, diag.ZeroSupport)
	if age := uint64(staleness); streamEng.cfg.MaxModelAge > 0 && age > streamEng.cfg.MaxModelAge {
		reasons = append(reasons, resilience.StaleAggregatesReason(age, streamEng.cfg.MaxModelAge))
	}
	reasons = append(reasons, sloDegradeReasons()...)
	if len(reasons) > 0 {
		root.Attr("degraded", "true")
		root.SetError("degraded: stream diagnostics crossed thresholds")
		// The O(1) fallback: the self-normalized IPS aggregate, which
		// needs no reward model and so cannot go stale.
		resp.Degraded = true
		resp.DegradedReasons = reasons
		resp.FallbackEstimator = "snips-stream"
		resp.Fallback = &fallbackJSON{Estimator: resp.FallbackEstimator, Estimate: toJSON(est.SNIPS)}
		evb.SetDegraded(reasonCodes(reasons))
		evb.SetFallback(resp.FallbackEstimator)
		degradedTotal.Inc()
		srvLog.Warn("degraded stream response", "id", requestID(r), "reasons", len(reasons))
	}
	writeJSON(w, resp)
}

// handleStreamDiagnose serves /diagnose with an empty trace from the
// same aggregates (the Diagnose block is part of the running state).
func handleStreamDiagnose(w http.ResponseWriter, r *http.Request, req *evalRequest) {
	eng := streamEng
	if un := eng.ready(); un != nil {
		w.Header().Set("Retry-After", "1")
		writeJSONStatus(w, http.StatusServiceUnavailable, un)
		return
	}
	root := obs.SpanFromContext(r.Context())
	sr, err := timed(r.Context(), root, "stream_diagnose", func() (streamResult, error) {
		return eng.evaluate(req.Policy, req.Options.Clip, req.Options.RefreshModel)
	})
	if err != nil {
		writeEvalError(w, err)
		return
	}
	evb := wideevent.FromContext(r.Context())
	evb.SetPolicy(req.Policy)
	evb.SetStream(sr.epoch, sr.modelEpoch, sr.epoch-sr.modelEpoch)
	writeJSON(w, diagnoseResponse{
		diagnosticsJSON: diagJSON(sr.est.Diagnostics),
		Stream: &streamMetaJSON{
			Fingerprint:      sr.fingerprint,
			Epoch:            sr.epoch,
			ModelEpoch:       sr.modelEpoch,
			StalenessRecords: sr.epoch - sr.modelEpoch,
		},
	})
}
