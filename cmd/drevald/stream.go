package main

import (
	"bytes"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"

	"drnet/internal/biasobs"
	"drnet/internal/core"
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

// streamPolicy is one registered (policy, clip) fingerprint: a frozen
// reward model plus the running sufficient statistics that answer
// evaluation queries in O(1). Guarded by streamEngine.mu.
type streamPolicy struct {
	fingerprint string
	policy      core.Policy[traceio.FlatContext, string]
	eval        *core.StreamEval[traceio.FlatContext, string]
	// modelEpoch is the record count the reward model was fit at; the
	// gap to the live epoch is the staleness every response reports.
	modelEpoch int
}

// streamEngine owns the WAL, the appendable view and the per-policy
// aggregates. The view's columns are its only history; a policy
// registers from a snapshot of them. One mutex serializes ingest,
// registration and O(1) reads so WAL order, fold order and replay
// order are the same total order — the property that makes crash
// replay bit-exact.
type streamEngine struct {
	srv      *server // whose config, metrics, log and bias report it uses
	wal      *walog.Log
	recovery walog.Recovery

	replaying atomic.Bool
	replayed  atomic.Uint64

	mu            sync.Mutex
	builder       *core.ViewBuilder[traceio.FlatContext, string] // guarded by mu
	evals         map[string]*streamPolicy                       // guarded by mu
	replayErr     error                                          // guarded by mu
	lastBiasEpoch int                                            // guarded by mu
	biasBusy      atomic.Bool
}

// newStreamEngine opens (and recovers) the WAL in -wal-dir. Call replay
// next — until it finishes, ingest and streamed evaluation answer 503.
func newStreamEngine(srv *server) (*streamEngine, error) {
	fsync, err := walog.ParseFsyncPolicy(srv.cfg.fsync)
	if err != nil {
		return nil, err
	}
	l, rec, err := walog.Open(walog.Options{
		Dir:           srv.cfg.walDir,
		SegmentBytes:  srv.cfg.segmentBytes,
		Fsync:         fsync,
		FsyncInterval: srv.cfg.fsyncInterval,
	})
	if err != nil {
		return nil, err
	}
	e := &streamEngine{
		srv:      srv,
		wal:      l,
		recovery: rec,
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
		e.mu.Lock()
		defer e.mu.Unlock()
		if err := (&traceio.IngestBatch{Records: flat}).AppendTo(e.builder); err != nil {
			return fmt.Errorf("frame %d: %w", seq, err)
		}
		e.replayed.Add(uint64(len(flat)))
		e.srv.m.replayRecords.Add(uint64(len(flat)))
		return nil
	})
	e.mu.Lock()
	defer e.mu.Unlock()
	e.replayErr = err
	e.publishLocked()
	if err != nil {
		e.srv.log.Error("wal replay failed", "err", err)
		return
	}
	e.srv.log.Info("wal replay complete",
		"records", e.builder.Len(),
		"frames", e.wal.Seq(),
		"segments", e.wal.Segments(),
		"truncatedBytes", e.recovery.TruncatedBytes,
	)
}

// publishLocked sets the epoch and WAL footprint gauges.
func (e *streamEngine) publishLocked() {
	m := &e.srv.m
	m.streamEpoch.Set(float64(e.builder.Len()))
	m.walBytes.Set(float64(e.wal.Bytes()))
	m.walSegments.Set(float64(e.wal.Segments()))
}

// serving reports whether the engine accepts stream traffic. When it
// cannot yet (replay in progress) or ever (replay failed) it answers
// 503 with Retry-After itself.
func (e *streamEngine) serving(w http.ResponseWriter) bool {
	un := &streamUnavailableJSON{Error: "wal replay in progress, retry shortly", Replaying: true}
	if !e.replaying.Load() {
		e.mu.Lock()
		err := e.replayErr
		e.mu.Unlock()
		if err == nil {
			return true
		}
		un = &streamUnavailableJSON{Error: "wal replay failed: " + err.Error()}
	}
	w.Header().Set("Retry-After", "1")
	writeJSONStatus(w, http.StatusServiceUnavailable, un)
	return false
}

// streamUnavailableJSON is the 503 body of streaming endpoints.
type streamUnavailableJSON struct {
	Error     string `json:"error"`
	Replaying bool   `json:"replaying,omitempty"`
}

// errNotDurable wraps WAL failures so the handler can answer 503 (the
// data is not safe; the client must retry) instead of 422.
var errNotDurable = errors.New("drevald: batch not durable")

// ingest makes one staged batch durable and folds it into the view
// and every registered aggregate, all under one lock hold so the WAL
// order equals the fold order. The batch comes from decodeIngest, so
// its records passed Trace.Validate — the view applies the identical
// checks, so post-WAL validation failures are impossible and the WAL
// never holds a batch replay would reject.
func (e *streamEngine) ingest(batch *traceio.IngestBatch) (ingestResponse, error) {
	payload := traceio.EncodeBatch(nil, batch.Records)
	e.mu.Lock()
	defer e.mu.Unlock()
	res, err := e.wal.Append(payload)
	if err != nil {
		e.srv.m.walAppendErrors.Inc()
		return ingestResponse{}, fmt.Errorf("%w: %v", errNotDurable, err)
	}
	from := e.builder.Len()
	if err := batch.AppendTo(e.builder); err != nil {
		// Unreachable after Trace.Validate; if it ever fires the
		// in-memory state no longer matches the WAL, so fail loudly.
		return ingestResponse{}, fmt.Errorf("drevald: durable batch rejected by view (state diverged, restart to replay): %v", err)
	}
	snap := e.builder.Snapshot()
	for _, sp := range e.evals {
		if err := sp.eval.Apply(snap, from); err != nil {
			return ingestResponse{}, fmt.Errorf("drevald: folding batch into %s: %v", sp.fingerprint, err)
		}
	}
	epoch := e.builder.Len()
	e.srv.m.ingestBatches.Inc()
	e.srv.m.ingestRecords.Add(uint64(len(batch.Records)))
	e.publishLocked()
	e.maybeRefreshBiasLocked(snap, epoch)
	return ingestResponse{
		Acked:   len(batch.Records),
		Seq:     res.Seq,
		Segment: res.Segment,
		Durable: res.Synced,
		Epoch:   epoch,
	}, nil
}

// maybeRefreshBiasLocked reruns the bias observatory over the streamed
// view every -bias-refresh ingested records, publishing to the same
// report and metrics the request path uses — live bias windows over
// the stream instead of per-request traces. The O(n) compute runs off
// the ingest path; at most one refresh is in flight.
func (e *streamEngine) maybeRefreshBiasLocked(snap *core.TraceView[traceio.FlatContext, string], epoch int) {
	cfg := &e.srv.cfg
	if cfg.biasRefresh <= 0 || cfg.biasWindows <= 0 || len(e.evals) == 0 {
		return
	}
	if epoch-e.lastBiasEpoch < cfg.biasRefresh {
		return
	}
	sp := e.oldestPolicyLocked()
	if !e.biasBusy.CompareAndSwap(false, true) {
		return // previous refresh still running; next batch retries
	}
	e.lastBiasEpoch = epoch
	go func() {
		defer e.srv.recoverGoroutine("bias-refresh")
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
// snapshot and publishes it, stamped with the epoch instead of a
// request.
func (e *streamEngine) refreshBias(snap *core.TraceView[traceio.FlatContext, string], sp *streamPolicy, epoch int) {
	report, err := biasobs.Compute(snap, sp.policy, e.srv.biasConfig())
	if err != nil {
		e.srv.log.Warn("stream bias refresh failed", "epoch", epoch, "err", err)
		return
	}
	sum := e.srv.publishBias(report, fmt.Sprintf("ingest@epoch=%d", epoch))
	if sum.Grade != biasobs.GradeHealthy {
		e.srv.log.Warn("stream bias observatory", "epoch", epoch, "grade", sum.Grade, "alarms", sum.Alarms)
	}
}

// streamResult is one O(1) read of a fingerprint's aggregates, with the
// metadata block saying which aggregate answered.
type streamResult struct {
	est  core.StreamEstimates
	meta *streamMetaJSON
}

// evaluate serves one streamed query: it registers the (policy, clip)
// fingerprint on first use and afterwards answers from running
// aggregates in O(1). Registration fits the policy and the reward
// model on one snapshot of the view and folds that snapshot into them
// by context code, holding the lock so no batch is missed or
// double-counted; a context interned later is absent from the
// snapshot, so best-observed gives it its global fallback. refresh
// forces a re-registration at the current epoch, which resets
// staleness to zero.
func (e *streamEngine) evaluate(spec string, clip float64, refresh bool) (streamResult, error) {
	key := spec + "|clip=" + strconv.FormatFloat(clip, 'g', -1, 64)
	e.mu.Lock()
	defer e.mu.Unlock()
	sp, ok := e.evals[key]
	if !ok || refresh {
		snap := e.builder.Snapshot()
		if snap.Len() == 0 {
			return streamResult{}, errors.New("stream is empty: ingest records before evaluating without a trace")
		}
		policy, err := traceio.ParsePolicyView(spec, snap)
		if err != nil {
			return streamResult{}, err
		}
		model := core.FitTableView(snap)
		eval := core.NewStreamEval(policy, model, core.StreamOptions{Clip: clip})
		if err := eval.Apply(snap, 0); err != nil {
			return streamResult{}, err
		}
		sp = &streamPolicy{
			fingerprint: fmt.Sprintf("%s@%d", key, snap.Len()),
			policy:      policy,
			eval:        eval,
			modelEpoch:  snap.Len(),
		}
		e.evals[key] = sp
		e.srv.m.streamPolicies.Set(float64(len(e.evals)))
		e.srv.log.Info("stream policy registered", "fingerprint", sp.fingerprint, "records", snap.Len())
	}
	est, err := sp.eval.Estimates()
	if err != nil {
		return streamResult{}, err
	}
	epoch := e.builder.Len()
	meta := &streamMetaJSON{
		Fingerprint:      sp.fingerprint,
		Epoch:            epoch,
		ModelEpoch:       sp.modelEpoch,
		StalenessRecords: epoch - sp.modelEpoch,
	}
	return streamResult{est: est, meta: meta}, nil
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
		Fsync:           e.srv.cfg.fsync,
		Policies:        len(e.evals),
	}
	if e.replayErr != nil {
		out.ReplayError = e.replayErr.Error()
	}
	return out
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
func (s *server) handleIngest(w http.ResponseWriter, r *http.Request) {
	eng := s.stream
	if eng == nil {
		httpError(w, http.StatusNotFound, "streaming ingestion disabled (-wal-dir not set)")
		return
	}
	if !eng.serving(w) {
		return
	}
	body, err := readBody(w, r, s.cfg.ingestMaxBytes)
	if err != nil {
		bodyError(w, err)
		return
	}
	var status int
	batch, err := timed(r.Context(), "ingest_decode", func() (batch *traceio.IngestBatch, err error) {
		// Decoding stays off the engine lock. The builder field is set
		// once; its Known takes the builder's own lock, and a code it
		// reports stays valid because the builder only grows.
		//lint:allow lockguard the builder pointer never changes and the builder locks itself
		batch, status, err = decodeIngest(body, eng.builder)
		return batch, err
	})
	if err != nil {
		httpError(w, status, err.Error())
		return
	}
	ack, err := timed(r.Context(), "durable_ingest", func() (ingestResponse, error) {
		return eng.ingest(batch)
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
	if s.log.Enabled(r.Context(), slog.LevelDebug) {
		s.log.Debug("ingest", "id", requestID(r), "acked", ack.Acked, "seq", ack.Seq, "epoch", ack.Epoch)
	}
	wideevent.FromContext(r.Context()).SetWALAck(ack.Seq, ack.Epoch, ack.Segment, ack.Durable)
	writeJSON(w, ack)
}

// decodeIngest turns a whole /ingest body into a staged batch, or into
// the status and error to refuse it with. The body goes to
// traceio.DecodeIngest first, resolving known contexts against vb;
// any body it hands back takes the reference path, decodeIngestBody.
func decodeIngest(body []byte, vb *core.ViewBuilder[traceio.FlatContext, string]) (*traceio.IngestBatch, int, error) {
	if batch, ok := traceio.DecodeIngest(body, vb); ok {
		return batch, http.StatusOK, nil
	}
	return decodeIngestBody(body)
}

// decodeIngestBody is the reference path: encoding/json, then
// ValidateFinite and Trace.Validate, with the codes and texts /ingest
// has always answered: 400 malformed, 400 empty, 422 invalid with the
// record index.
func decodeIngestBody(body []byte) (*traceio.IngestBatch, int, error) {
	var req ingestRequest
	if err := decodeStrict(bytes.NewReader(body), &req); err != nil {
		return nil, http.StatusBadRequest, fmt.Errorf("invalid request body: %w", err)
	}
	if len(req.Records) == 0 {
		return nil, http.StatusBadRequest, errors.New("empty batch")
	}
	if err := traceio.ValidateFinite(req.Records); err != nil {
		return nil, http.StatusUnprocessableEntity, err
	}
	if err := traceio.ToCore(traceio.FlatTrace{Records: req.Records}).Validate(); err != nil {
		return nil, http.StatusUnprocessableEntity, err
	}
	return &traceio.IngestBatch{Records: req.Records}, http.StatusOK, nil
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

// streamRead is where streamed /evaluate and /diagnose share their
// work: one O(1) read of the request's (policy, clip) aggregates as the
// named phase, with the policy and stream position stamped onto the
// wide event. It answers the request itself when the read fails.
func (s *server) streamRead(w http.ResponseWriter, r *http.Request, req *evalRequest, phase string) (streamResult, bool) {
	sr, err := timed(r.Context(), phase, func() (streamResult, error) {
		return s.stream.evaluate(req.Policy, req.Options.Clip, req.Options.RefreshModel)
	})
	if err != nil {
		s.writeEvalError(w, err)
		return sr, false
	}
	evb := wideevent.FromContext(r.Context())
	evb.SetPolicy(req.Policy)
	evb.SetStream(sr.meta.Epoch, sr.meta.ModelEpoch, sr.meta.StalenessRecords)
	return sr, true
}

// handleStreamEvaluate serves /evaluate with an empty trace from the
// streaming aggregates: O(1) per request after the fingerprint's first
// use. SelfNormalize selects the SNIPS/SN-DR variants exactly as it
// does for the batch path; bootstrap and propensity estimation need
// the raw records and are rejected. Degraded responses fall back to
// the SNIPS aggregate, which needs no reward model and so cannot go
// stale.
func (s *server) handleStreamEvaluate(w http.ResponseWriter, r *http.Request, req *evalRequest) {
	if req.Options.Bootstrap != 0 {
		httpError(w, http.StatusBadRequest, "options.bootstrap is unavailable for streamed evaluation (send the trace inline to bootstrap)")
		return
	}
	if req.Options.EstimatePropensities {
		httpError(w, http.StatusBadRequest, "options.estimatePropensities is unavailable for streamed evaluation (propensities must be logged at ingest)")
		return
	}
	sr, ok := s.streamRead(w, r, req, "stream_evaluate")
	if !ok {
		return
	}
	resp := estimatesResponse(sr.est, req.Options.SelfNormalize)
	resp.Stream = sr.meta
	s.finishEvaluate(w, r, resp, fallback{"snips-stream", func() (core.Estimate, error) { return sr.est.SNIPS, nil }})
}

// handleStreamDiagnose serves /diagnose with an empty trace from the
// same aggregates (the Diagnose block is part of the running state).
func (s *server) handleStreamDiagnose(w http.ResponseWriter, r *http.Request, req *evalRequest) {
	if sr, ok := s.streamRead(w, r, req, "stream_diagnose"); ok {
		writeDiagnose(w, r, diagnoseResponse{diagnosticsJSON: diagJSON(sr.est.Diagnostics), Stream: sr.meta})
	}
}
