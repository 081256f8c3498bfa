package main

import (
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"drnet/internal/biasobs"
	"drnet/internal/mathx"
	"drnet/internal/obs"
	"drnet/internal/resilience"
	"drnet/internal/traceio"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// driftTraceJSON builds a trace whose reward steps from 0.2 to 0.9 at
// the midpoint while every overlap diagnostic stays perfect (single
// decision logged with propensity 1, so constant:a gives weight 1
// everywhere): only the drift detector should object.
func driftTraceJSON(n int) []traceio.FlatRecord {
	rng := mathx.NewRNG(21)
	recs := make([]traceio.FlatRecord, n)
	for i := range recs {
		base := 0.2
		if i >= n/2 {
			base = 0.9
		}
		recs[i] = traceio.FlatRecord{
			Features:   []float64{float64(i % 3)},
			Decision:   "a",
			Reward:     base + rng.Normal(0, 0.01),
			Propensity: 1,
		}
	}
	return recs
}

func TestDebugBiasServesLastReport(t *testing.T) {
	t.Parallel()
	s, srv := startTest(t, nil)

	// Before any compute request the endpoint must 404 with a
	// machine-readable error, not an empty report.
	resp, err := http.Get(srv.URL + "/debug/bias")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pre-request status %d, want 404", resp.StatusCode)
	}
	resp.Body.Close()

	eval := post(t, srv, "/evaluate", evalRequest{Trace: testTraceJSON(t, false), Policy: "constant:a"})
	defer eval.Body.Close()
	if eval.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(eval.Body)
		t.Fatalf("evaluate status %d: %s", eval.StatusCode, body)
	}
	var er evalResponse
	if err := json.NewDecoder(eval.Body).Decode(&er); err != nil {
		t.Fatal(err)
	}
	if er.TraceHealth == nil {
		t.Fatal("evaluate response missing traceHealth block")
	}
	if er.TraceHealth.Windows != s.cfg.biasWindows {
		t.Fatalf("traceHealth windows = %d, want %d", er.TraceHealth.Windows, s.cfg.biasWindows)
	}
	if er.TraceHealth.Grade == "" {
		t.Fatal("traceHealth grade empty")
	}

	resp, err = http.Get(srv.URL + "/debug/bias")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-request status %d, want 200", resp.StatusCode)
	}
	var br struct {
		RequestID  string                `json:"requestId"`
		AgeSeconds float64               `json:"ageSeconds"`
		N          int                   `json:"n"`
		Grade      string                `json:"grade"`
		Windows    []biasobs.WindowStats `json:"windows"`
		Alarms     []biasobs.Alarm       `json:"alarms"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		t.Fatal(err)
	}
	if br.RequestID == "" || br.N != 400 || br.Grade == "" {
		t.Fatalf("report header off: %+v", br)
	}
	if len(br.Windows) != s.cfg.biasWindows {
		t.Fatalf("got %d windows, want %d", len(br.Windows), s.cfg.biasWindows)
	}
	for _, w := range br.Windows {
		if w.N == 0 {
			t.Fatalf("empty window in report: %+v", w)
		}
	}
}

func TestDiagnoseCarriesTraceHealth(t *testing.T) {
	t.Parallel()
	s, srv := startTest(t, nil)
	resp := post(t, srv, "/diagnose", evalRequest{Trace: testTraceJSON(t, false), Policy: "constant:a"})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var dr struct {
		N           int                    `json:"n"`
		TraceHealth *biasobs.HealthSummary `json:"traceHealth"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&dr); err != nil {
		t.Fatal(err)
	}
	if dr.N != 400 {
		t.Fatalf("diagnostics n = %d, want 400", dr.N)
	}
	if dr.TraceHealth == nil || dr.TraceHealth.Windows != s.cfg.biasWindows {
		t.Fatalf("traceHealth = %+v, want %d windows", dr.TraceHealth, s.cfg.biasWindows)
	}
}

func TestEvaluateDriftDegradesWhenEnabled(t *testing.T) {
	t.Parallel()
	_, srv := startTest(t, func(c *config) { c.degradeOnDrift = true })
	resp := post(t, srv, "/evaluate", evalRequest{Trace: driftTraceJSON(400), Policy: "constant:a"})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var er evalResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatal(err)
	}
	if er.TraceHealth == nil || er.TraceHealth.Grade != biasobs.GradeDrift {
		t.Fatalf("traceHealth = %+v, want drift grade", er.TraceHealth)
	}
	if !er.Degraded {
		t.Fatal("drifting trace not tagged degraded with -degrade-on-drift")
	}
	found := false
	for _, reason := range er.DegradedReasons {
		if reason.Code == resilience.ReasonTraceDrift {
			found = true
		}
	}
	if !found {
		t.Fatalf("no trace_drift reason in %+v", er.DegradedReasons)
	}
	if er.Fallback == nil {
		t.Fatal("degraded response missing fallback estimate")
	}
}

func TestEvaluateDriftNotDegradedByDefault(t *testing.T) {
	t.Parallel()
	_, srv := startTest(t, nil)
	resp := post(t, srv, "/evaluate", evalRequest{Trace: driftTraceJSON(400), Policy: "constant:a"})
	defer resp.Body.Close()
	var er evalResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatal(err)
	}
	// The alarm is reported but, without -degrade-on-drift, advisory.
	if er.TraceHealth == nil || er.TraceHealth.Alarms == 0 {
		t.Fatalf("traceHealth = %+v, want fired alarms", er.TraceHealth)
	}
	if er.Degraded {
		t.Fatalf("response degraded without -degrade-on-drift: %+v", er.DegradedReasons)
	}
}

func TestHealthzReportsLastTrace(t *testing.T) {
	t.Parallel()
	_, srv := startTest(t, nil)

	get := func() healthJSON {
		resp, err := http.Get(srv.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var h healthJSON
		if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
			t.Fatal(err)
		}
		return h
	}
	if h := get(); h.LastTrace != nil || h.BiasGrade != "" {
		t.Fatalf("pre-request healthz carries trace state: %+v", h)
	}
	post(t, srv, "/evaluate", evalRequest{Trace: testTraceJSON(t, false), Policy: "constant:a"}).Body.Close()
	h := get()
	if h.LastTrace == nil {
		t.Fatal("healthz missing lastTrace after evaluate")
	}
	if h.LastTrace.Records != 400 || h.LastTrace.UniqueDecisions != 3 {
		t.Fatalf("lastTrace = %+v, want 400 records / 3 decisions", h.LastTrace)
	}
	if h.BiasGrade == "" {
		t.Fatal("healthz missing biasGrade after evaluate")
	}
}

func TestBiasDisabledHidesSurface(t *testing.T) {
	t.Parallel()
	_, srv := startTest(t, func(c *config) { c.biasWindows = 0 })
	resp := post(t, srv, "/evaluate", evalRequest{Trace: testTraceJSON(t, false), Policy: "constant:a"})
	defer resp.Body.Close()
	var er evalResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatal(err)
	}
	if er.TraceHealth != nil {
		t.Fatalf("traceHealth present with observatory disabled: %+v", er.TraceHealth)
	}
	br, err := http.Get(srv.URL + "/debug/bias")
	if err != nil {
		t.Fatal(err)
	}
	defer br.Body.Close()
	if br.StatusCode != http.StatusNotFound {
		t.Fatalf("/debug/bias status %d with observatory disabled, want 404", br.StatusCode)
	}
}

func TestMetricsExposeBiasAndSinkFamilies(t *testing.T) {
	t.Parallel()
	_, srv := startTest(t, nil)
	post(t, srv, "/evaluate", evalRequest{Trace: testTraceJSON(t, false), Policy: "constant:a"}).Body.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"drevald_bias_reports_total",
		"drevald_bias_alarms_total",
		"drevald_bias_last_grade",
		"drevald_bias_last_min_ess_ratio",
		"drevald_bias_last_max_zero_support",
		"drevald_bias_last_windows",
		"drevald_events_sink_dropped_total",
	} {
		if !strings.Contains(string(body), name) {
			t.Errorf("/metrics missing %s", name)
		}
	}
}

// TestOpenMetricsGoldenBiasFamily locks the OpenMetrics exposition of
// the drevald_bias_* family — alongside an exemplar'd histogram — to a
// golden file, so format drift (metadata suffix handling, exemplar
// syntax, EOF terminator) is caught by diff. Regenerate with
// go test ./cmd/drevald -run Golden -args -update.
func TestOpenMetricsGoldenBiasFamily(t *testing.T) {
	t.Parallel()
	r := obs.NewRegistry()
	m := registerBiasMetrics(r)
	m.reports.Add(3)
	m.alarms.Add(2)
	m.grade.Set(2)
	m.minESS.Set(0.8125)
	m.maxZero.Set(0.25)
	m.windows.Set(8)
	r.Help("drevald_eval_ess_ratio", "ESS/N of the importance weights per /evaluate request.")
	h := r.Histogram("drevald_eval_ess_ratio", obs.ExpBuckets(0.25, 2, 3))
	h.ObserveExemplar(0.4375, "req-0042")
	h.Observe(0.9)

	var b strings.Builder
	if err := r.WriteOpenMetrics(&b); err != nil {
		t.Fatal(err)
	}
	goldenPath := filepath.Join("testdata", "bias_openmetrics.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (regenerate with -args -update)", err)
	}
	if b.String() != string(want) {
		t.Fatalf("OpenMetrics exposition drifted from golden.\ngot:\n%s\nwant:\n%s", b.String(), want)
	}
}
