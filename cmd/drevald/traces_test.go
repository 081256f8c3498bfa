package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"drnet/internal/obs"
	"drnet/internal/resilience"
	"drnet/internal/wideevent"
)

// tracesBody mirrors the /debug/traces response shape.
type tracesBody struct {
	Stats  wideevent.Stats `json:"stats"`
	Traces []timelineJSON  `json:"traces"`
}

// timelineJSON is one /debug/traces timeline.
type timelineJSON struct {
	Trace      string      `json:"trace"`
	Root       string      `json:"root"`
	DurationMs float64     `json:"durationMs"`
	Status     int         `json:"status"`
	Degraded   bool        `json:"degraded"`
	Error      string      `json:"error"`
	Phases     []phaseJSON `json:"phases"`
}

// phaseJSON is one phase of a timelineJSON.
type phaseJSON struct {
	Name          string  `json:"name"`
	StartOffsetMs float64 `json:"startOffsetMs"`
	DurationMs    float64 `json:"durationMs"`
	Error         string  `json:"error"`
}

func getTraces(t *testing.T, srv *httptest.Server, query string) tracesBody {
	t.Helper()
	resp, err := http.Get(srv.URL + "/debug/traces" + query)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/traces returned %d", resp.StatusCode)
	}
	var body tracesBody
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	return body
}

// findTimeline returns the timeline of request id, or nil.
func findTimeline(body tracesBody, id string) *timelineJSON {
	for i := range body.Traces {
		if body.Traces[i].Trace == id {
			return &body.Traces[i]
		}
	}
	return nil
}

// postWithID is post with an explicit X-Request-Id header.
func postWithID(t *testing.T, srv *httptest.Server, path, id string, body any) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, srv.URL+path, bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-Id", id)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestEvaluateTimelineEndToEnd is the tentpole acceptance test: a real
// /evaluate with a bootstrap, identified by the client's X-Request-Id,
// must come back from /debug/traces as a root→phase timeline whose
// root is the HTTP request and whose phases are the evaluation phases,
// bootstrap included, in start order.
func TestEvaluateTimelineEndToEnd(t *testing.T) {
	t.Parallel()
	// All-zero thresholds disable degradation: this test wants the
	// healthy timeline shape.
	_, srv := startTest(t, func(c *config) { c.thresholds = resilience.Thresholds{} })

	id := "e2e-trace-" + obs.NewID()
	resp := postWithID(t, srv, "/evaluate", id, evalRequest{
		Trace:   testTraceJSON(t, false),
		Policy:  "constant:c",
		Options: evalOptions{Bootstrap: 30, Seed: 3},
	})
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/evaluate returned %d", resp.StatusCode)
	}

	body := getTraces(t, srv, "?n=100")
	if body.Stats.Recorded == 0 || body.Stats.Buffered == 0 {
		t.Fatalf("journal empty after a traced request: %+v", body.Stats)
	}
	tl := findTimeline(body, id)
	if tl == nil {
		t.Fatalf("trace %s not in /debug/traces (got %d traces)", id, len(body.Traces))
	}
	if tl.Root != "http/evaluate" || tl.Status != http.StatusOK {
		t.Fatalf("root = %q status %d, want http/evaluate 200", tl.Root, tl.Status)
	}
	if tl.Error != "" || tl.Degraded {
		t.Fatalf("healthy request recorded error %q degraded %v", tl.Error, tl.Degraded)
	}

	// The timeline lists the phases by start offset, which must be the
	// order the handler ran them in.
	var names []string
	for _, p := range tl.Phases {
		names = append(names, p.Name)
		if p.StartOffsetMs < 0 || p.DurationMs < 0 {
			t.Fatalf("phase %q has negative offset/duration: %+v", p.Name, p)
		}
		if p.StartOffsetMs+p.DurationMs > tl.DurationMs+1 {
			t.Fatalf("phase %q (%+v) ends after its request (%.3fms)", p.Name, p, tl.DurationMs)
		}
	}
	if got, want := strings.Join(names, " "), "decode build_view fit_model estimate bias_observatory drevald_bootstrap"; got != want {
		t.Fatalf("timeline phases = %s, want %s", got, want)
	}
}

// TestDegradedRequestMarksSpanError: the degraded path is a 200 on the
// wire but an error in the request's record — its timeline must be
// marked degraded, carry the fallback phase, and tick
// obs_span_errors_total{span="http/evaluate"}.
func TestDegradedRequestMarksSpanError(t *testing.T) {
	t.Parallel()
	s, srv := startTest(t, func(c *config) { c.thresholds = resilience.Thresholds{ESSRatioFloor: 1.0} })

	errsBefore := s.reg.Counter("obs_span_errors_total", obs.L("span", "http/evaluate")).Value()
	id := "degraded-trace-" + obs.NewID()
	resp := postWithID(t, srv, "/evaluate", id, evalRequest{
		Trace:  testTraceJSON(t, false),
		Policy: "constant:c",
	})
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded request must stay 200, got %d", resp.StatusCode)
	}

	tl := findTimeline(getTraces(t, srv, "?n=100"), id)
	if tl == nil {
		t.Fatalf("degraded trace %s not recorded", id)
	}
	if !tl.Degraded || tl.Status != http.StatusOK {
		t.Fatalf("timeline = degraded %v status %d, want a degraded 200", tl.Degraded, tl.Status)
	}
	if n := len(tl.Phases); n == 0 || tl.Phases[n-1].Name != "fallback" {
		t.Fatalf("degraded timeline does not end in the fallback phase: %+v", tl.Phases)
	}
	if after := s.reg.Counter("obs_span_errors_total", obs.L("span", "http/evaluate")).Value(); after != errsBefore+1 {
		t.Fatalf("span error counter went %d → %d, want +1", errsBefore, after)
	}
}

// TestScrapeRoutesNotTraced: /metrics, /healthz and the debug reads
// must leave no event and no span series — only compute routes are
// traced.
func TestScrapeRoutesNotTraced(t *testing.T) {
	t.Parallel()
	s, srv := startTest(t, nil)

	before := s.journal.Stats().Emitted
	for _, path := range []string{"/healthz", "/metrics", "/debug/vars", "/debug/traces"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	if after := s.journal.Stats().Emitted; after != before {
		t.Fatalf("scrape routes emitted %d events", after-before)
	}
	for key := range scrapeMetrics(t, srv.URL) {
		if strings.Contains(key, `span="http/`) {
			t.Fatalf("scrape routes recorded span series %s", key)
		}
	}
}

// TestTraceSinkStreamsJSONL: -events-out receives the request's event
// as one parseable JSON line, carrying every phase with its start
// offset and duration.
func TestTraceSinkStreamsJSONL(t *testing.T) {
	t.Parallel()
	out := filepath.Join(t.TempDir(), "events.jsonl")
	s, srv := startTest(t, func(c *config) {
		c.thresholds = resilience.Thresholds{}
		c.eventsOut = out
	})
	id := "sink-trace-" + obs.NewID()
	resp := postWithID(t, srv, "/evaluate", id, evalRequest{
		Trace:   testTraceJSON(t, false),
		Policy:  "constant:c",
		Options: evalOptions{Bootstrap: 10, Seed: 2},
	})
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/evaluate returned %d", resp.StatusCode)
	}
	// The sink is drained by a background goroutine; closing the server
	// flushes every queued line to the file before we inspect it.
	s.close()
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasSuffix(data, []byte("\n")) {
		t.Fatalf("-events-out does not end in a newline: %q", data)
	}
	var found *wideevent.Event
	for _, line := range bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n")) {
		var ev wideevent.Event
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatalf("sink line is not valid JSON: %v\n%s", err, line)
		}
		if ev.RequestID == id {
			found = &ev
		}
	}
	if found == nil {
		t.Fatalf("event %s missing from the JSONL export:\n%s", id, data)
	}
	for _, phase := range []string{"decode", "build_view", "estimate", "drevald_bootstrap"} {
		ms, timed := found.PhaseMs[phase]
		off, started := found.PhaseStartMs[phase]
		if !timed || !started {
			t.Fatalf("phase %q missing from the exported event: phaseMs %v phaseStartMs %v", phase, found.PhaseMs, found.PhaseStartMs)
		}
		if off < 0 || off+ms > found.DurationMs+1 {
			t.Fatalf("phase %q at %.3fms for %.3fms lies outside its %.3fms request", phase, off, ms, found.DurationMs)
		}
	}
	if found.PhaseStartMs["estimate"] > found.PhaseStartMs["drevald_bootstrap"] {
		t.Fatalf("estimate starts after the bootstrap: %v", found.PhaseStartMs)
	}
}

// TestDebugTracesOnBothMuxes: the endpoint is served on the service
// port and the debug port, and rejects a malformed n.
func TestDebugTracesOnBothMuxes(t *testing.T) {
	t.Parallel()
	s := newTestServer(t, nil)
	for name, mux := range map[string]http.Handler{"service": s.routes(), "debug": s.debugRoutes()} {
		srv := httptest.NewServer(mux)
		for query, want := range map[string]int{"": http.StatusOK, "?n=1000": http.StatusOK, "?n=bogus": http.StatusBadRequest, "?n=0": http.StatusBadRequest} {
			resp, err := http.Get(srv.URL + "/debug/traces" + query)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != want {
				t.Fatalf("%s mux: /debug/traces%s returned %d, want %d", name, query, resp.StatusCode, want)
			}
		}
		srv.Close()
	}
}
