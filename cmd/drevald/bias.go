package main

import (
	"context"
	"net/http"
	"time"

	"drnet/internal/biasobs"
	"drnet/internal/core"
	"drnet/internal/obs"
	"drnet/internal/traceio"
	"drnet/internal/wideevent"
)

// biasState is the most recent request's observatory output, published
// for GET /debug/bias. drevald is stateless per request — the trace
// arrives in the POST body — so the observatory necessarily reports on
// the last trace observed, stamped with the request that carried it.
type biasState struct {
	report    *biasobs.Report
	requestID string
	when      time.Time
}

// traceSummary describes the last trace view drevald built, surfaced
// on /healthz so operators can confirm what the server actually
// evaluated (and how long the columnar build took).
type traceSummary struct {
	records      int
	contexts     int
	decisions    int
	buildSeconds float64
	when         time.Time
}

// biasMetrics is the drevald_bias_* family: report/alarm counters plus
// last-report gauges, so a fleet's estimator health is scrapeable
// without polling /debug/bias.
type biasMetrics struct {
	reports *obs.Counter
	alarms  *obs.Counter
	grade   *obs.Gauge
	minESS  *obs.Gauge
	maxZero *obs.Gauge
	windows *obs.Gauge
}

// registerBiasMetrics creates the family on r. Factored out of
// newMetrics so the OpenMetrics golden test can build the same family
// on a fresh registry with deterministic values.
func registerBiasMetrics(r *obs.Registry) biasMetrics {
	r.Help("drevald_bias_reports_total", "Bias-observatory reports computed (one per /evaluate or /diagnose request).")
	r.Help("drevald_bias_alarms_total", "Windowed drift alarms fired across all bias-observatory reports.")
	r.Help("drevald_bias_last_grade", "Health grade of the most recent report: 0 healthy, 1 watch, 2 drift.")
	r.Help("drevald_bias_last_min_ess_ratio", "Smallest per-window ESS/N in the most recent report.")
	r.Help("drevald_bias_last_max_zero_support", "Largest per-window zero-support fraction in the most recent report.")
	r.Help("drevald_bias_last_windows", "Window count of the most recent report.")
	return biasMetrics{
		reports: r.Counter("drevald_bias_reports_total"),
		alarms:  r.Counter("drevald_bias_alarms_total"),
		grade:   r.Gauge("drevald_bias_last_grade"),
		minESS:  r.Gauge("drevald_bias_last_min_ess_ratio"),
		maxZero: r.Gauge("drevald_bias_last_max_zero_support"),
		windows: r.Gauge("drevald_bias_last_windows"),
	}
}

// gradeValue maps the health grade onto the drevald_bias_last_grade
// gauge scale — biasobs.GradeRank, which the SLO engine's drift-free
// classification shares, so gauge and SLO can never rank a grade
// differently.
func gradeValue(grade string) float64 {
	return float64(biasobs.GradeRank(grade))
}

// observeBias runs the windowed observatory over the request's
// evaluation as its own phase, publishes the report, stamps its grade
// onto the request's wide event and returns the compact summary
// embedded in the response body. Returns (nil, nil) when the
// observatory is disabled.
func (s *server) observeBias(ctx context.Context, id string, ev *core.Evaluation[traceio.FlatContext, string]) (*biasobs.HealthSummary, error) {
	if s.cfg.biasWindows <= 0 {
		return nil, nil
	}
	report, err := timed(ctx, "bias_observatory", func() (*biasobs.Report, error) {
		return biasobs.ComputeEval(ctx, ev, s.biasConfig())
	})
	if err != nil {
		return nil, err
	}
	sum := s.publishBias(report, id)
	if sum.Grade != biasobs.GradeHealthy {
		s.log.Warn("bias observatory", "id", id, "grade", sum.Grade, "alarms", sum.Alarms)
	}
	wideevent.FromContext(ctx).SetBiasGrade(sum.Grade)
	return &sum, nil
}

func (s *server) biasConfig() biasobs.Config {
	return biasobs.Config{Windows: s.cfg.biasWindows, DriftThreshold: s.cfg.biasDriftThreshold}
}

// publishBias makes report the one /debug/bias, /healthz biasGrade and
// the drevald_bias_* gauges show, stamped with id: the request that
// carried the trace, or the stream epoch it was computed at.
func (s *server) publishBias(report *biasobs.Report, id string) biasobs.HealthSummary {
	s.lastBias.Store(&biasState{report: report, requestID: id, when: time.Now()})
	sum := report.Summary()
	m := s.m.bias
	m.reports.Inc()
	m.alarms.Add(uint64(sum.Alarms))
	m.grade.Set(gradeValue(sum.Grade))
	m.minESS.Set(sum.MinESSRatio)
	m.maxZero.Set(sum.MaxZeroSupportFrac)
	m.windows.Set(float64(sum.Windows))
	return sum
}

// recordTraceSummary publishes the view drevald just built for the
// /healthz lastTrace block.
func (s *server) recordTraceSummary(view *core.TraceView[traceio.FlatContext, string], buildDur time.Duration) {
	s.lastTrace.Store(&traceSummary{
		records:      view.Len(),
		contexts:     view.NumContexts(),
		decisions:    view.NumDecisions(),
		buildSeconds: buildDur.Seconds(),
		when:         time.Now(),
	})
}

// lastTraceJSON is the /healthz lastTrace block. ViewBuildSeconds runs
// from the buffered body to the view and its policy, decoding included:
// the fast path builds the view while it decodes.
type lastTraceJSON struct {
	Records          int     `json:"records"`
	UniqueContexts   int     `json:"uniqueContexts"`
	UniqueDecisions  int     `json:"uniqueDecisions"`
	ViewBuildSeconds float64 `json:"viewBuildSeconds"`
	AgeSeconds       float64 `json:"ageSeconds"`
}

// biasResponse is the GET /debug/bias body: the full report plus the
// identity and age of the request it was computed for.
type biasResponse struct {
	RequestID  string  `json:"requestId"`
	AgeSeconds float64 `json:"ageSeconds"`
	*biasobs.Report
}

// handleBias serves the most recent bias-observatory report. 404 with
// a machine-readable error until the first /evaluate or /diagnose
// request arrives (or when the observatory is disabled).
func (s *server) handleBias(w http.ResponseWriter, _ *http.Request) {
	if s.cfg.biasWindows <= 0 {
		httpError(w, http.StatusNotFound, "bias observatory disabled (-bias-windows 0)")
		return
	}
	st := s.lastBias.Load()
	if st == nil {
		httpError(w, http.StatusNotFound, biasobs.ErrNoView.Error())
		return
	}
	writeJSON(w, biasResponse{
		RequestID:  st.requestID,
		AgeSeconds: time.Since(st.when).Seconds(),
		Report:     st.report,
	})
}
