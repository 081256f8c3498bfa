package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"drnet/internal/biasobs"
	"drnet/internal/changepoint"
	"drnet/internal/core"
	"drnet/internal/obs"
	"drnet/internal/resilience"
	"drnet/internal/slo"
	"drnet/internal/traceio"
	"drnet/internal/walog"
	"drnet/internal/wideevent"
)

// The replica re-runs a workload's operations in this process, on one
// goroutine, calling the library functions drevald's handlers call in
// the order they call them, with a span around each call. It is the
// per-layer half of the benchmark: drevald's HTTP server, middleware,
// limiter and logging are not replicated, and the client-visible time
// they account for is reported as unattributed_ms.

// replica prepares a workload's re-run (inputs, references, prefilled
// state) and returns the function that performs it: traced when rec is
// not nil, untraced otherwise. That function returns how many ledger
// units the operations cover: requests, batches, or thousands of
// records recovered.
type replica func(ctx context.Context, e *env) (func(rec *recorder) (int, error), error)

// Operation counts of the replicas: fixed, so the ledger of every run
// covers the same work.
const (
	replicaEvals    = 40
	replicaBatches  = 1000
	replicaReadsPer = 10 // batches per streamed read, about the HTTP run's ratio
)

// layers is every layer the ledger reports, named after drevald's
// phases where it has one.
var layers = []string{
	// Request handling: traceio's decoding, conversion and policy parsing.
	"decode", "validate", "to_core", "parse_policy",
	// core's batch path; the bootstrap runs on the parallel pool.
	"build_view", "diagnose", "fit_model", "direct_method", "ips", "doubly_robust", "bootstrap",
	// biasobs.
	"bias_observatory",
	// Response encoding, and observing: wideevent events and obs spans.
	"encode", "observe",
	// The ingest path: traceio's batch codec and walog.
	"ingest_decode", "encode_batch", "wal_append",
	// core's appendable view and streaming aggregates.
	"view_append", "stream_fold", "stream_estimates",
	// Recovery: walog and traceio.
	"wal_open", "wal_read", "decode_batch",
}

// layer runs fn inside a span named name.
func (r *recorder) layer(name string, fn func() error) error {
	id := r.begin(name)
	err := fn()
	r.end(id)
	return err
}

// serverRequest mirrors drevald's /evaluate request; decodeStrict
// decodes it as drevald does, rejecting unknown fields.
type serverRequest struct {
	Trace   []traceio.FlatRecord `json:"trace"`
	Policy  string               `json:"policy"`
	Options struct {
		Clip                 float64 `json:"clip"`
		SelfNormalize        bool    `json:"selfNormalize"`
		EstimatePropensities bool    `json:"estimatePropensities"`
		Bootstrap            int     `json:"bootstrap"`
		Seed                 int64   `json:"seed"`
		RefreshModel         bool    `json:"refreshModel"`
	} `json:"options"`
}

func decodeStrict(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// validateFinite mirrors drevald's up-front check of the numbers a
// permissive JSON client could send as NaN or Inf.
func validateFinite(records []traceio.FlatRecord) error {
	bad := func(v float64) bool { return math.IsNaN(v) || math.IsInf(v, 0) }
	for i, r := range records {
		if bad(r.Reward) || bad(r.Propensity) {
			return fmt.Errorf("record %d: non-finite reward or propensity", i)
		}
		for _, f := range r.Features {
			if bad(f) {
				return fmt.Errorf("record %d: non-finite feature", i)
			}
		}
	}
	return nil
}

// The response types mirror drevald's, so encode does the same work.
type estimateOut struct {
	Value     float64 `json:"value"`
	StdErr    float64 `json:"stdErr"`
	N         int     `json:"n"`
	ESS       float64 `json:"ess"`
	MaxWeight float64 `json:"maxWeight"`
}

type diagnosticsOut struct {
	N             int     `json:"n"`
	ESS           float64 `json:"ess"`
	MatchRate     float64 `json:"matchRate"`
	MeanWeight    float64 `json:"meanWeight"`
	MaxWeight     float64 `json:"maxWeight"`
	ZeroSupport   int     `json:"zeroSupport"`
	MinPropensity float64 `json:"minPropensity"`
}

type streamOut struct {
	Fingerprint      string `json:"fingerprint"`
	Epoch            int    `json:"epoch"`
	ModelEpoch       int    `json:"modelEpoch"`
	StalenessRecords int    `json:"stalenessRecords"`
}

type response struct {
	DM               estimateOut            `json:"dm"`
	IPS              estimateOut            `json:"ips"`
	DR               estimateOut            `json:"dr"`
	Diagnostics      diagnosticsOut         `json:"diagnostics"`
	TraceHealth      *biasobs.HealthSummary `json:"traceHealth,omitempty"`
	DRInterval       *intervalReply         `json:"drInterval,omitempty"`
	BootstrapSkipped *int                   `json:"bootstrapSkipped,omitempty"`
	Degraded         bool                   `json:"degraded"`
	Stream           *streamOut             `json:"stream,omitempty"`
}

type ackOut struct {
	Acked   int    `json:"acked"`
	Seq     uint64 `json:"seq"`
	Segment string `json:"segment"`
	Durable bool   `json:"durable"`
	Epoch   int    `json:"epoch"`
}

func estimate(e core.Estimate) estimateOut {
	return estimateOut{Value: e.Value, StdErr: e.StdErr, N: e.N, ESS: e.ESS, MaxWeight: e.MaxWeight}
}

func diagnostics(d core.Diagnostics) diagnosticsOut {
	return diagnosticsOut{N: d.N, ESS: d.ESS, MatchRate: d.MatchRate, MeanWeight: d.MeanWeight,
		MaxWeight: d.MaxWeight, ZeroSupport: d.ZeroSupport, MinPropensity: d.MinPropensity}
}

// reply projects a response onto what the checks read.
func (r response) reply() evalReply {
	out := evalReply{
		DM:         estimateReply{r.DM.Value, r.DM.StdErr},
		IPS:        estimateReply{r.IPS.Value, r.IPS.StdErr},
		DR:         estimateReply{r.DR.Value, r.DR.StdErr},
		DRInterval: r.DRInterval,
		Degraded:   r.Degraded,
	}
	if r.Stream != nil {
		out.Stream = &streamReply{Epoch: r.Stream.Epoch}
	}
	return out
}

// server is the replica's stand-in for drevald's process-wide state:
// the wide-event journal feeding the SLO engine, as drevald wires them
// with its default flags, and the response buffer.
type server struct {
	rec     *recorder
	journal *wideevent.Journal
	out     bytes.Buffer
}

func newServer() (*server, error) {
	eng, err := slo.New(slo.DefaultConfig(), nil)
	if err != nil {
		return nil, err
	}
	j := wideevent.NewJournal(wideevent.Options{Capacity: 1024, SampleRate: 1, SlowMs: 250, Seed: 1})
	j.Observe(eng.Observe)
	return &server{journal: j}, nil
}

// call is one request in flight: drevald's middleware opens a root obs
// span and a wide event for it, and each handler phase adds a child
// span and a phase timing. All of that is the observe layer.
type call struct {
	rec  *recorder
	op   int
	evb  *wideevent.Builder
	root *obs.Span
}

func (s *server) begin(op int, route string) *call {
	c := &call{rec: s.rec, op: s.rec.beginOp(op)}
	o := c.rec.begin("observe")
	id := obs.NewID()
	c.root = obs.Default.StartSpanWithID("http"+route, id).Attr("route", route).Attr("method", http.MethodPost)
	c.evb = s.journal.Begin(id, route)
	c.rec.end(o)
	return c
}

func (c *call) finish(err error) {
	status := http.StatusOK
	if err != nil {
		status = http.StatusUnprocessableEntity
	}
	o := c.rec.begin("observe")
	c.root.Attr("status", strconv.Itoa(status))
	c.root.End()
	c.evb.Finish(status)
	c.rec.end(o)
	c.rec.end(c.op)
}

// note runs a wide-event annotation as observe time.
func (c *call) note(fn func()) {
	o := c.rec.begin("observe")
	fn()
	c.rec.end(o)
}

// observed opens drevald's timing of phase (a child obs span and a
// wide-event phase) as observe time and returns the func that closes it.
func (c *call) observed(phase string) func(error) {
	o := c.rec.begin("observe")
	endPhase := c.evb.Phase(phase)
	sp := c.root.StartChild(phase)
	c.rec.end(o)
	return func(err error) {
		o := c.rec.begin("observe")
		if err != nil {
			sp.SetError(err.Error())
		}
		sp.End()
		endPhase()
		c.rec.end(o)
	}
}

// phase is drevald's timed(): fn as the named layer inside the phase's
// observation.
func (c *call) phase(phase, layer string, fn func() error) error {
	done := c.observed(phase)
	err := c.rec.layer(layer, fn)
	done(err)
	return err
}

// evaluate replays handleEvaluate for one batch request.
func (s *server) evaluate(ctx context.Context, op int, body []byte) (response, error) {
	c := s.begin(op, "/evaluate")
	resp, err := s.evaluateBatch(ctx, c, body)
	c.finish(err)
	return resp, err
}

func (s *server) evaluateBatch(ctx context.Context, c *call, body []byte) (response, error) {
	r := c.rec
	var req serverRequest
	if err := r.layer("decode", func() error { return decodeStrict(body, &req) }); err != nil {
		return response{}, err
	}
	if err := r.layer("validate", func() error {
		if len(req.Trace) == 0 {
			return errors.New("empty trace")
		}
		return validateFinite(req.Trace)
	}); err != nil {
		return response{}, err
	}
	var trace core.Trace[traceio.FlatContext, string]
	_ = r.layer("to_core", func() error {
		trace = traceio.ToCore(traceio.FlatTrace{Records: req.Trace})
		return nil
	})
	if err := r.layer("validate", func() error { return trace.Validate() }); err != nil {
		return response{}, err
	}
	var policy core.Policy[traceio.FlatContext, string]
	if err := r.layer("parse_policy", func() (err error) {
		policy, err = traceio.ParsePolicy(req.Policy, trace)
		return err
	}); err != nil {
		return response{}, err
	}
	c.note(func() { c.evb.SetPolicy(req.Policy) })
	var view *core.TraceView[traceio.FlatContext, string]
	if err := c.phase("build_view", "build_view", func() (err error) {
		view, err = core.NewTraceViewKeyedCtx(ctx, trace, traceio.FlatContext.Key)
		return err
	}); err != nil {
		return response{}, err
	}
	var diag core.Diagnostics
	if err := c.phase("diagnose", "diagnose", func() (err error) {
		diag, err = core.DiagnoseViewCtx(ctx, view, policy)
		return err
	}); err != nil {
		return response{}, err
	}
	var report *biasobs.Report
	if err := c.phase("bias_observatory", "bias_observatory", func() (err error) {
		report, err = biasobs.ComputeCtx(ctx, view, policy, biasobs.Config{
			Windows:        biasobs.DefaultWindows,
			DriftThreshold: changepoint.DefaultThreshold,
		})
		return err
	}); err != nil {
		return response{}, err
	}
	health := report.Summary()
	c.note(func() {
		c.evb.SetRegime(diag.ESS/float64(diag.N), diag.MaxWeight, diag.ZeroSupport)
		c.evb.SetBiasGrade(health.Grade)
	})
	var model *core.ViewTableModel[traceio.FlatContext, string]
	if err := c.phase("fit_model", "fit_model", func() (err error) {
		model, err = core.FitTableViewCtx(ctx, view)
		return err
	}); err != nil {
		return response{}, err
	}
	var dm, ips, dr core.Estimate
	o := req.Options
	for _, p := range []struct {
		name string
		fn   func() error
	}{
		{"direct_method", func() (err error) {
			dm, err = core.DirectMethodViewCtx(ctx, view, policy, model)
			return err
		}},
		{"ips", func() (err error) {
			ips, err = core.IPSViewCtx(ctx, view, policy, core.IPSOptions{Clip: o.Clip, SelfNormalize: o.SelfNormalize})
			return err
		}},
		{"doubly_robust", func() (err error) {
			dr, err = core.DoublyRobustViewCtx(ctx, view, policy, model, core.DROptions{Clip: o.Clip, SelfNormalize: o.SelfNormalize})
			return err
		}},
	} {
		if err := c.phase(p.name, p.name, p.fn); err != nil {
			return response{}, err
		}
	}
	if reasons := resilience.DefaultThresholds().Check(diag.N, diag.ESS, diag.MaxWeight, diag.ZeroSupport); len(reasons) > 0 {
		return response{}, fmt.Errorf("degraded: %s", reasons[0].Code)
	}
	resp := response{DM: estimate(dm), IPS: estimate(ips), DR: estimate(dr), Diagnostics: diagnostics(diag), TraceHealth: &health}
	if b := o.Bootstrap; b > 0 {
		seed := o.Seed
		if seed == 0 {
			seed = 1
		}
		var ci core.Interval
		var stats core.BootstrapStats
		if err := c.phase("drevald_bootstrap", "bootstrap", func() (err error) {
			ci, stats, err = core.BootstrapDRViewSeededStatsCtx(ctx, view, policy,
				core.DROptions{Clip: o.Clip, SelfNormalize: o.SelfNormalize}, seed, b, 0.95)
			return err
		}); err != nil {
			return response{}, err
		}
		c.note(func() { c.evb.SetBootstrap(stats.Resamples, stats.Skipped) })
		resp.DRInterval = &intervalReply{Lo: ci.Lo, Hi: ci.Hi, Level: ci.Level}
		resp.BootstrapSkipped = &stats.Skipped
	}
	return resp, s.encode(r, resp)
}

func (s *server) encode(r *recorder, v any) error {
	return r.layer("encode", func() error {
		s.out.Reset()
		return json.NewEncoder(&s.out).Encode(v)
	})
}

// engine is the replica of drevald's streaming engine: the WAL, the
// appendable view, the records, and the reader's registered aggregate.
type engine struct {
	wal        *walog.Log
	view       *core.ViewBuilder[traceio.FlatContext, string]
	records    core.Trace[traceio.FlatContext, string]
	eval       *core.StreamEval[traceio.FlatContext, string]
	modelEpoch int
}

// openEngine opens dir's WAL with drevald's default -fsync,
// -fsync-interval and -segment-bytes, in a wal_open span.
func openEngine(r *recorder, dir string) (*engine, error) {
	eng := &engine{view: core.NewViewBuilderKeyed[traceio.FlatContext, string](traceio.FlatContext.Key)}
	err := r.layer("wal_open", func() (err error) {
		eng.wal, _, err = walog.Open(walog.Options{Dir: dir, Fsync: walog.FsyncAlways, FsyncInterval: 100 * time.Millisecond, SegmentBytes: 64 << 20})
		return err
	})
	return eng, err
}

// appendRecords is view_append: the records join the view and the
// record list the policy parser reads.
func (eng *engine) appendRecords(r *recorder, trace core.Trace[traceio.FlatContext, string]) error {
	return r.layer("view_append", func() error {
		for _, rec := range trace {
			if err := eng.view.Append(rec); err != nil {
				return err
			}
		}
		eng.records = append(eng.records, trace...)
		return nil
	})
}

// ingest replays handleIngest and the engine's ingest for one batch.
func (s *server) ingest(op int, eng *engine, body []byte) (ackOut, error) {
	c := s.begin(op, "/ingest")
	ack, err := s.ingestBatch(c, eng, body)
	c.finish(err)
	return ack, err
}

func (s *server) ingestBatch(c *call, eng *engine, body []byte) (ackOut, error) {
	r := c.rec
	var req ingestBody
	if err := r.layer("ingest_decode", func() error { return decodeStrict(body, &req) }); err != nil {
		return ackOut{}, err
	}
	if err := r.layer("validate", func() error {
		if len(req.Records) == 0 {
			return errors.New("empty batch")
		}
		return validateFinite(req.Records)
	}); err != nil {
		return ackOut{}, err
	}
	var trace core.Trace[traceio.FlatContext, string]
	_ = r.layer("to_core", func() error {
		trace = traceio.ToCore(traceio.FlatTrace{Records: req.Records})
		return nil
	})
	if err := r.layer("validate", func() error { return trace.Validate() }); err != nil {
		return ackOut{}, err
	}
	done := c.observed("durable_ingest")
	var payload []byte
	_ = r.layer("encode_batch", func() error {
		payload = traceio.EncodeBatch(nil, req.Records)
		return nil
	})
	var res walog.AppendResult
	err := r.layer("wal_append", func() (err error) {
		res, err = eng.wal.Append(payload)
		return err
	})
	from := eng.view.Len()
	if err == nil {
		err = eng.appendRecords(r, trace)
	}
	if err == nil {
		err = r.layer("stream_fold", func() error {
			snap := eng.view.Snapshot()
			if eng.eval == nil {
				return nil
			}
			return eng.eval.Apply(snap, from)
		})
	}
	done(err)
	if err != nil {
		return ackOut{}, err
	}
	epoch := eng.view.Len()
	c.note(func() { c.evb.SetWALAck(res.Seq, epoch, res.Segment, res.Synced) })
	ack := ackOut{Acked: len(trace), Seq: res.Seq, Segment: res.Segment, Durable: res.Synced, Epoch: epoch}
	return ack, s.encode(r, ack)
}

// read replays handleStreamEvaluate and the engine's evaluate for one
// empty-trace /evaluate, registering the policy on first use or when
// the request asks for a refreshed model.
func (s *server) read(op int, eng *engine, body []byte) (response, error) {
	c := s.begin(op, "/evaluate")
	resp, err := s.readStream(c, eng, body)
	c.finish(err)
	return resp, err
}

func (s *server) readStream(c *call, eng *engine, body []byte) (response, error) {
	r := c.rec
	var req serverRequest
	if err := r.layer("decode", func() error { return decodeStrict(body, &req) }); err != nil {
		return response{}, err
	}
	done := c.observed("stream_evaluate")
	var est core.StreamEstimates
	err := func() error {
		if eng.eval == nil || req.Options.RefreshModel {
			var policy core.Policy[traceio.FlatContext, string]
			if err := r.layer("parse_policy", func() (err error) {
				policy, err = traceio.ParsePolicy(req.Policy, eng.records)
				return err
			}); err != nil {
				return err
			}
			var snap *core.TraceView[traceio.FlatContext, string]
			var model *core.ViewTableModel[traceio.FlatContext, string]
			_ = r.layer("fit_model", func() error {
				snap = eng.view.Snapshot()
				model = core.FitTableView(snap)
				return nil
			})
			if err := r.layer("stream_fold", func() error {
				ev := core.NewStreamEval(policy, model, core.StreamOptions{Clip: req.Options.Clip})
				if err := ev.Apply(snap, 0); err != nil {
					return err
				}
				eng.eval, eng.modelEpoch = ev, snap.Len()
				return nil
			}); err != nil {
				return err
			}
		}
		return r.layer("stream_estimates", func() (err error) {
			est, err = eng.eval.Estimates()
			return err
		})
	}()
	done(err)
	if err != nil {
		return response{}, err
	}
	epoch := eng.view.Len()
	d := est.Diagnostics
	c.note(func() {
		c.evb.SetPolicy(req.Policy)
		c.evb.SetStream(epoch, eng.modelEpoch, epoch-eng.modelEpoch)
		c.evb.SetRegime(d.ESS/float64(d.N), d.MaxWeight, d.ZeroSupport)
	})
	if reasons := resilience.DefaultThresholds().Check(d.N, d.ESS, d.MaxWeight, d.ZeroSupport); len(reasons) > 0 {
		return response{}, fmt.Errorf("degraded: %s", reasons[0].Code)
	}
	resp := response{
		DM: estimate(est.DM), IPS: estimate(est.IPS), DR: estimate(est.DR), Diagnostics: diagnostics(d),
		Stream: &streamOut{Epoch: epoch, ModelEpoch: eng.modelEpoch, StalenessRecords: epoch - eng.modelEpoch},
	}
	return resp, s.encode(r, resp)
}

// evalReplica re-runs replicaEvals batch evaluations, round-robin over
// the workload's payloads, after one untraced warmup request.
func evalReplica(spec evalSpec) replica {
	return func(ctx context.Context, e *env) (func(*recorder) (int, error), error) {
		_, raw, refs, err := spec.inputs(e.seed)
		if err != nil {
			return nil, err
		}
		return func(rec *recorder) (int, error) {
			s, err := newServer()
			if err != nil {
				return 0, err
			}
			check := func(p int, resp response, err error) {
				if err == nil {
					err = refs[p].check(resp.reply(), 0)
				}
				e.t.done("replica evaluate", err)
			}
			resp, err := s.evaluate(ctx, 0, raw[0])
			check(0, resp, err)
			s.rec = rec
			for k := range replicaEvals {
				p := k % evalPayloads
				resp, err := s.evaluate(ctx, k, raw[p])
				check(p, resp, err)
			}
			return replicaEvals, nil
		}, nil
	}
}

// ingestReplica re-runs replicaBatches durable ingests with a streamed
// read every replicaReadsPer batches, then a refreshed read checked
// against the batch reference. Warmup mirrors the HTTP run's and is not
// traced.
func ingestReplica(ctx context.Context, e *env) (func(*recorder) (int, error), error) {
	st := newStream(e.seed)
	total := ingestWarmup + replicaBatches
	bodies := make([][]byte, total)
	for i := range bodies {
		bodies[i] = st.body(i)
	}
	ref, err := evalReference(evalBody{Trace: st.prefix(total), Policy: "best-observed", Options: evalOptions{Clip: readClip}})
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(e.dir, "replica-wal")
	return func(rec *recorder) (int, error) {
		if err := os.RemoveAll(dir); err != nil {
			return 0, err
		}
		s, err := newServer()
		if err != nil {
			return 0, err
		}
		eng, err := openEngine(nil, dir)
		if err != nil {
			return 0, err
		}
		defer eng.wal.Close()
		ingest := func(op, i int) {
			ack, err := s.ingest(op, eng, bodies[i])
			if err == nil && (ack.Epoch != (i+1)*st.batch || ack.Acked != st.batch || !ack.Durable) {
				err = fmt.Errorf("ack %+v after batch %d", ack, i)
			}
			e.t.done("replica ingest", err)
		}
		read := func(op int, body []byte, want *reference) {
			resp, err := s.read(op, eng, body)
			if err == nil && want != nil {
				err = want.check(resp.reply(), streamedTolerance)
			}
			e.t.done("replica stream read", err)
		}
		for i := range ingestWarmup {
			ingest(i, i)
		}
		read(ingestWarmup, streamRead, nil)
		s.rec = rec
		op := 0
		for i := ingestWarmup; i < total; i++ {
			ingest(op, i)
			op++
			if (i-ingestWarmup+1)%replicaReadsPer == 0 {
				read(op, streamRead, nil)
				op++
			}
		}
		read(op, streamRefresh, &ref)
		return replicaBatches, nil
	}, nil
}

// replayReplica re-runs one recovery of the 1M-record WAL, then the
// first streamed read, which registers the policy over the recovered
// records.
func replayReplica(ctx context.Context, e *env) (func(*recorder) (int, error), error) {
	st := newStream(e.seed)
	dir := filepath.Join(e.dir, "replica-wal")
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := prefill(dir, st, replayFrames); err != nil {
		return nil, err
	}
	records := replayFrames * st.batch
	ref, err := evalReference(evalBody{Trace: st.prefix(replayFrames), Policy: "best-observed", Options: evalOptions{Clip: readClip}})
	if err != nil {
		return nil, err
	}
	return func(rec *recorder) (int, error) {
		s, err := newServer()
		if err != nil {
			return 0, err
		}
		s.rec = rec
		op := rec.beginOp(0)
		eng, err := openEngine(rec, dir)
		if err != nil {
			return 0, err
		}
		err = rec.layer("wal_read", func() error {
			return eng.wal.ReadAll(func(seq uint64, payload []byte) error {
				var flat []traceio.FlatRecord
				if err := rec.layer("decode_batch", func() (err error) {
					flat, err = traceio.DecodeBatch(payload)
					return err
				}); err != nil {
					return fmt.Errorf("frame %d: %w", seq, err)
				}
				var trace core.Trace[traceio.FlatContext, string]
				_ = rec.layer("to_core", func() error {
					trace = traceio.ToCore(traceio.FlatTrace{Records: flat})
					return nil
				})
				return eng.appendRecords(rec, trace)
			})
		})
		rec.end(op)
		err = errors.Join(err, eng.wal.Close())
		if err == nil && eng.view.Len() != records {
			err = fmt.Errorf("recovered %d records, want %d", eng.view.Len(), records)
		}
		e.t.done("replica recovery", err)
		resp, err := s.read(1, eng, streamRead)
		if err == nil {
			err = ref.check(resp.reply(), streamedTolerance)
		}
		e.t.done("replica stream read", err)
		return records / 1000, nil
	}, nil
}
