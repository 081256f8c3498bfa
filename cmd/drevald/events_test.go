package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"drnet/internal/obs"
	"drnet/internal/parallel"
	"drnet/internal/resilience"
	"drnet/internal/slo"
	"drnet/internal/wideevent"
)

// eventClock is a hand-advanced clock for deterministic journals and
// SLO engines.
type eventClock struct {
	mu sync.Mutex
	t  time.Time
}

func newEventClock() *eventClock {
	return &eventClock{t: time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)}
}

func (c *eventClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *eventClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

// withClock rebuilds s's journal and SLO engine on clock, so events
// and burn rates are byte-deterministic. Call it before serving.
func withClock(t *testing.T, s *server, clock *eventClock) {
	t.Helper()
	if err := s.initEvents(clock.Now); err != nil {
		t.Fatal(err)
	}
}

// postRawWithID POSTs raw (possibly malformed) bytes with a pinned
// X-Request-Id; postWithID (traces_test.go) covers the well-formed
// cases.
func postRawWithID(t *testing.T, srv *httptest.Server, path, id string, body []byte) *http.Response {
	t.Helper()
	req, err := http.NewRequest("POST", srv.URL+path, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-Id", id)
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func getBody(t *testing.T, srv *httptest.Server, path string) (int, string) {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

func marshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func findEvent(evs []*wideevent.Event, id string) *wideevent.Event {
	for _, ev := range evs {
		if ev.RequestID == id {
			return ev
		}
	}
	return nil
}

// TestOneEventPerRequest is the exactly-one invariant, end to end:
// every /evaluate, /diagnose and /ingest request — success or error —
// emits exactly one wide event, and untraced routes emit none. A
// request whose phase failed carries that phase's name and message.
func TestOneEventPerRequest(t *testing.T) {
	t.Parallel()
	s, srv := startTest(t, func(c *config) { c.eventsBuffer, c.walDir, c.segmentBytes = 64, t.TempDir(), 4096 })
	j := s.journal

	evalBody := marshal(t, evalRequest{Trace: testTraceJSON(t, false), Policy: "constant:c", Options: evalOptions{Bootstrap: 30, Seed: 3}})

	resp := postRawWithID(t, srv, "/evaluate", "ev-ok", evalBody)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("evaluate status %d", resp.StatusCode)
	}
	if got := j.Stats().Emitted; got != 1 {
		t.Fatalf("emitted = %d after one /evaluate, want 1", got)
	}

	resp = postRawWithID(t, srv, "/diagnose", "dg-ok", marshal(t, evalRequest{Trace: testTraceJSON(t, false), Policy: "constant:c"}))
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("diagnose status %d", resp.StatusCode)
	}

	resp = postRawWithID(t, srv, "/evaluate", "ev-bad", []byte("{not json"))
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad-body status %d, want 400", resp.StatusCode)
	}

	buildViewErrs := s.reg.Counter("obs_span_errors_total", obs.L("span", "build_view"))
	errsBefore := buildViewErrs.Value()
	resp = postRawWithID(t, srv, "/evaluate", "ev-wat", marshal(t, evalRequest{Trace: testTraceJSON(t, false), Policy: "wat"}))
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown-policy status %d, want 400", resp.StatusCode)
	}
	if got := buildViewErrs.Value(); got != errsBefore+1 {
		t.Fatalf(`obs_span_errors_total{span="build_view"} went %d → %d, want +1`, errsBefore, got)
	}

	ingBody := marshal(t, ingestRequest{Records: testTraceJSON(t, false)})
	resp = postRawWithID(t, srv, "/ingest", "ing-ok", ingBody)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d", resp.StatusCode)
	}

	if got := j.Stats().Emitted; got != 5 {
		t.Fatalf("emitted = %d after five traced requests, want 5", got)
	}

	// Untraced routes emit nothing.
	if code, _ := getBody(t, srv, "/healthz"); code != http.StatusOK {
		t.Fatalf("healthz status %d", code)
	}
	if code, _ := getBody(t, srv, "/debug/events"); code != http.StatusOK {
		t.Fatalf("debug/events status %d", code)
	}
	if got := j.Stats().Emitted; got != 5 {
		t.Fatalf("emitted = %d after untraced requests, want still 5", got)
	}

	evs := j.Events()
	ok := findEvent(evs, "ev-ok")
	if ok == nil {
		t.Fatal("no event for ev-ok")
	}
	if ok.Route != "/evaluate" || ok.Status != 200 || ok.Policy != "constant:c" {
		t.Fatalf("ev-ok = %+v", ok)
	}
	if ok.ESSRatio <= 0 || ok.ESSRatio > 1 {
		t.Fatalf("ev-ok essRatio = %g", ok.ESSRatio)
	}
	if ok.BiasGrade == "" {
		t.Fatalf("ev-ok biasGrade empty (observatory on by default)")
	}
	if ok.BootstrapResamples != 30 {
		t.Fatalf("ev-ok bootstrapResamples = %d, want 30", ok.BootstrapResamples)
	}
	for _, phase := range []string{"decode", "build_view", "estimate", "drevald_bootstrap"} {
		if _, present := ok.PhaseMs[phase]; !present {
			t.Fatalf("ev-ok phaseMs missing %q: %v", phase, ok.PhaseMs)
		}
	}
	bad := findEvent(evs, "ev-bad")
	const badErr = "invalid request body: invalid character 'n' looking for beginning of object key string"
	if bad == nil || bad.Status != 400 || bad.Error != badErr || bad.FailedPhase != "decode" {
		t.Fatalf("ev-bad = %+v, want status 400, error %q and failed phase decode", bad, badErr)
	}
	wat := findEvent(evs, "ev-wat")
	const watErr = `traceio: unknown policy "wat" (want constant:<decision> or best-observed)`
	if wat == nil || wat.Status != 400 || wat.Error != watErr || wat.FailedPhase != "build_view" {
		t.Fatalf("ev-wat = %+v, want status 400, error %q and failed phase build_view", wat, watErr)
	}
	ing := findEvent(evs, "ing-ok")
	if ing == nil {
		t.Fatal("no event for ing-ok")
	}
	// Seq is 0-based (first batch acks 0); epoch counts records.
	if ing.WALEpoch != 400 || ing.WALSegment == "" || !ing.WALDurable {
		t.Fatalf("ing-ok WAL ack = epoch %d segment %q durable %v", ing.WALEpoch, ing.WALSegment, ing.WALDurable)
	}
	// The decode is timed under the ledger's layer name, apart from the
	// durable append and fold.
	for _, phase := range []string{"ingest_decode", "durable_ingest"} {
		if _, present := ing.PhaseMs[phase]; !present {
			t.Fatalf("ing-ok phaseMs missing %q: %v", phase, ing.PhaseMs)
		}
	}
}

// TestStreamedEventAnnotations covers the aggregate-served path: the
// wide event carries stream epoch/staleness and the canonical
// fallback estimator name when degraded.
func TestStreamedEventAnnotations(t *testing.T) {
	t.Parallel()
	s, srv := startTest(t, func(c *config) {
		c.eventsBuffer, c.walDir, c.segmentBytes, c.maxModelAge = 64, t.TempDir(), 4096, 1
	})
	j := s.journal

	records := testTraceJSON(t, false)
	resp := postRawWithID(t, srv, "/ingest", "ing-1", marshal(t, ingestRequest{Records: records}))
	resp.Body.Close()
	// Register the fingerprint at the current epoch, then ingest more so
	// the model goes stale past -max-model-age.
	resp = postRawWithID(t, srv, "/evaluate", "sev-fresh", marshal(t, evalRequest{Policy: "constant:c"}))
	resp.Body.Close()
	resp = postRawWithID(t, srv, "/ingest", "ing-2", marshal(t, ingestRequest{Records: records}))
	resp.Body.Close()
	resp = postRawWithID(t, srv, "/evaluate", "sev-stale", marshal(t, evalRequest{Policy: "constant:c"}))
	defer resp.Body.Close()
	var out evalResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if !out.Degraded || out.FallbackEstimator != "snips-stream" {
		t.Fatalf("stale stream response = degraded %v fallbackEstimator %q", out.Degraded, out.FallbackEstimator)
	}
	ev := findEvent(j.Events(), "sev-stale")
	if ev == nil {
		t.Fatal("no event for sev-stale")
	}
	if !ev.Streamed || ev.StreamEpoch != 2*len(records) || ev.StalenessRecords != len(records) {
		t.Fatalf("sev-stale stream fields = %+v", ev)
	}
	if !ev.Degraded || ev.FallbackEstimator != "snips-stream" {
		t.Fatalf("sev-stale degradation fields = degraded %v fallback %q", ev.Degraded, ev.FallbackEstimator)
	}
	found := false
	for _, code := range ev.DegradedReasons {
		found = found || code == resilience.ReasonStaleAggs
	}
	if !found {
		t.Fatalf("sev-stale reasons %v missing %s", ev.DegradedReasons, resilience.ReasonStaleAggs)
	}
	// Streamed /diagnose records the regime, as batch /diagnose does.
	resp = postRawWithID(t, srv, "/diagnose", "sdg", marshal(t, evalRequest{Policy: "constant:c"}))
	resp.Body.Close()
	if ev := findEvent(j.Events(), "sdg"); ev == nil || !ev.Streamed || ev.ESSRatio <= 0 || ev.Policy != "constant:c" {
		t.Fatalf("streamed /diagnose event = %+v, want stream fields, policy and regime", ev)
	}
}

// TestTailRetentionE2E proves the tail bias end to end: at sample
// rate 0 healthy requests are sampled out but error and degraded
// requests are always retained and queryable through the filters.
func TestTailRetentionE2E(t *testing.T) {
	t.Parallel()
	// Slow-event retention is off, so only errors and degradation keep
	// an event.
	s, srv := startTest(t, func(c *config) { c.eventsBuffer, c.eventsSample, c.eventsSlowMs = 64, 0, 0 })
	j := s.journal

	// Under the default thresholds constant:a, the logging policy's
	// modal decision, is healthy, while constant:c leaves most records
	// with zero support and degrades.
	trace := testTraceJSON(t, false)
	for i := 0; i < 3; i++ {
		resp := postRawWithID(t, srv, "/evaluate", "healthy", marshal(t, evalRequest{Trace: trace, Policy: "constant:a"}))
		resp.Body.Close()
	}
	resp := postRawWithID(t, srv, "/evaluate", "broken", []byte("{"))
	resp.Body.Close()
	resp = postRawWithID(t, srv, "/evaluate", "degraded", marshal(t, evalRequest{Trace: trace, Policy: "constant:c"}))
	resp.Body.Close()

	st := j.Stats()
	if st.Emitted != 5 || st.SampledOut != 3 || st.Recorded != 2 {
		t.Fatalf("stats = %+v, want 5 emitted, 3 sampled out, 2 recorded", st)
	}
	if ev := findEvent(j.Events(), "healthy"); ev != nil {
		t.Fatalf("healthy event retained at rate 0: %+v", ev)
	}

	code, body := getBody(t, srv, "/debug/events?degraded=true")
	if code != http.StatusOK {
		t.Fatalf("filter status %d", code)
	}
	var q struct {
		Stats  wideevent.Stats    `json:"stats"`
		Events []*wideevent.Event `json:"events"`
	}
	if err := json.Unmarshal([]byte(body), &q); err != nil {
		t.Fatal(err)
	}
	if len(q.Events) != 1 || q.Events[0].RequestID != "degraded" {
		t.Fatalf("degraded=true returned %+v", q.Events)
	}
	code, body = getBody(t, srv, "/debug/events?status=400")
	if code != http.StatusOK || !strings.Contains(body, `"broken"`) {
		t.Fatalf("status=400 filter: code %d body %s", code, body)
	}

	// /debug/traces reads the same journal, so it shows the same two
	// requests and never a sampled-out healthy one.
	var ids []string
	for _, tl := range getTraces(t, srv, "?n=100").Traces {
		ids = append(ids, tl.Trace)
	}
	sort.Strings(ids)
	if strings.Join(ids, ",") != "broken,degraded" {
		t.Fatalf("/debug/traces lists %v, want exactly [broken degraded]", ids)
	}
}

// TestEventAndSLODeterministicAcrossWorkers locks the acceptance
// criterion: under a fixed clock, seed and pinned request IDs, the
// /debug/events and /debug/slo bodies are byte-identical at
// worker-pool widths 1, 2 and 8.
func TestEventAndSLODeterministicAcrossWorkers(t *testing.T) {
	evalBody := marshal(t, evalRequest{Trace: testTraceJSON(t, false), Policy: "constant:c", Options: evalOptions{Bootstrap: 40, Seed: 7}})
	diagBody := marshal(t, evalRequest{Trace: testTraceJSON(t, false), Policy: "constant:c"})

	oldWorkers := parallel.DefaultWorkers()
	t.Cleanup(func() { parallel.SetDefaultWorkers(oldWorkers) })

	var wantEvents, wantSLO string
	for _, workers := range []int{1, 2, 8} {
		parallel.SetDefaultWorkers(workers)
		s := newTestServer(t, func(c *config) { c.eventsBuffer, c.eventsSeed = 64, 42 })
		withClock(t, s, newEventClock())
		srv := httptest.NewServer(s.routes())

		for i, id := range []string{"ev-0", "ev-1", "ev-2"} {
			resp := postRawWithID(t, srv, "/evaluate", id, evalBody)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("workers=%d evaluate %d status %d", workers, i, resp.StatusCode)
			}
		}
		resp := postRawWithID(t, srv, "/diagnose", "dg-0", diagBody)
		resp.Body.Close()
		resp = postRawWithID(t, srv, "/evaluate", "bad-0", []byte("{"))
		resp.Body.Close()

		_, events := getBody(t, srv, "/debug/events?limit=1000")
		_, sloBody := getBody(t, srv, "/debug/slo")
		srv.Close()

		if wantEvents == "" {
			wantEvents, wantSLO = events, sloBody
			continue
		}
		if events != wantEvents {
			t.Fatalf("workers=%d /debug/events differs:\n%s\n%s", workers, events, wantEvents)
		}
		if sloBody != wantSLO {
			t.Fatalf("workers=%d /debug/slo differs:\n%s\n%s", workers, sloBody, wantSLO)
		}
	}
	if !strings.Contains(wantSLO, `"availability"`) || !strings.Contains(wantSLO, `"state":"ok"`) {
		t.Fatalf("slo body missing expected shape: %s", wantSLO)
	}
}

// TestDegradeOnSLOPageEscalation drives the full escalation loop: a
// page-severity burn (observed by the engine, surfaced by Eval) tags
// subsequent /evaluate responses degraded with an slo_burn reason,
// and recovery clears the tag.
func TestDegradeOnSLOPageEscalation(t *testing.T) {
	t.Parallel()
	sloPath := filepath.Join(t.TempDir(), "slo.json")
	if err := os.WriteFile(sloPath, marshal(t, slo.Config{
		Objectives:    []slo.Objective{{Name: "avail", Kind: slo.KindAvailability, Target: 0.9}},
		Windows:       []slo.Window{{Name: "fast", ShortSeconds: 60, LongSeconds: 300, Burn: 5, Severity: "page"}},
		BucketSeconds: 10,
	}), 0o644); err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, func(c *config) {
		c.eventsBuffer, c.sloConfig, c.degradeOnSLOPage = 64, sloPath, true
		// Disable intrinsic degradation: the burn must be the only reason.
		c.thresholds = resilience.Thresholds{}
	})
	clock := newEventClock()
	withClock(t, s, clock)
	eng := s.slo
	srv := serveTest(t, s)

	// Simulate an outage the engine observed: 60 seconds of 500s.
	for i := 0; i < 60; i++ {
		eng.Observe(&wideevent.Event{Route: "/evaluate", Status: 500})
		clock.Advance(time.Second)
	}
	// The state machine advances on Eval — a /debug/slo poll, exactly
	// as a scrape would.
	if _, body := getBody(t, srv, "/debug/slo"); !strings.Contains(body, `"state":"page"`) {
		t.Fatalf("slo state after outage: %s", body)
	}

	evalBody := marshal(t, evalRequest{Trace: testTraceJSON(t, false), Policy: "constant:c"})
	resp := postRawWithID(t, srv, "/evaluate", "during-burn", evalBody)
	var out evalResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !out.Degraded || out.FallbackEstimator != "snips-clip" {
		t.Fatalf("during-burn = degraded %v fallback %q, want slo-degraded with fallback", out.Degraded, out.FallbackEstimator)
	}
	found := false
	for _, r := range out.DegradedReasons {
		if r.Code == resilience.ReasonSLOBurn {
			found = true
		}
	}
	if !found {
		t.Fatalf("during-burn reasons %+v missing %s", out.DegradedReasons, resilience.ReasonSLOBurn)
	}

	// Recovery: walk past every window, re-evaluate the machine, and
	// the tag clears.
	clock.Advance(400 * time.Second)
	if _, body := getBody(t, srv, "/debug/slo"); !strings.Contains(body, `"state":"ok"`) {
		t.Fatalf("slo state after recovery: %s", body)
	}
	resp = postRawWithID(t, srv, "/evaluate", "after-recovery", evalBody)
	out = evalResponse{}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if out.Degraded {
		t.Fatalf("after-recovery still degraded: %+v", out.DegradedReasons)
	}
}

// TestHealthzAndVarsCarryJournal checks the rollup satellites: the
// /healthz body carries the journal counters and SLO grade, and
// /debug/vars carries the journal stats block.
func TestHealthzAndVarsCarryJournal(t *testing.T) {
	t.Parallel()
	s := newTestServer(t, func(c *config) { c.eventsBuffer = 16 })
	withClock(t, s, newEventClock())
	srv := serveTest(t, s)

	resp := postRawWithID(t, srv, "/evaluate", "h-1", marshal(t, evalRequest{Trace: testTraceJSON(t, false), Policy: "constant:c"}))
	resp.Body.Close()

	_, body := getBody(t, srv, "/healthz")
	var h healthJSON
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatal(err)
	}
	if h.Events == nil || h.Events.Emitted != 1 || h.Events.Recorded != 1 {
		t.Fatalf("healthz events = %+v", h.Events)
	}
	if h.SLO != "ok" {
		t.Fatalf("healthz slo = %q", h.SLO)
	}

	_, body = getBody(t, srv, "/debug/vars")
	var vars struct {
		Events *wideevent.Stats `json:"events"`
	}
	if err := json.Unmarshal([]byte(body), &vars); err != nil {
		t.Fatal(err)
	}
	// /healthz itself is untraced, so the count is unchanged.
	if vars.Events == nil || vars.Events.Emitted != 1 {
		t.Fatalf("debug/vars events = %+v", vars.Events)
	}
}
