package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"drnet/internal/core"
	"drnet/internal/mathx"
	"drnet/internal/obs"
	"drnet/internal/resilience"
	"drnet/internal/traceio"
)

func testTraceJSON(t *testing.T, blankPropensities bool) []traceio.FlatRecord {
	return testTraceJSONSized(t, blankPropensities, 400)
}

// testTraceJSONSized builds an n-record valid trace; the chaos tests
// use large n so a full bootstrap takes long enough to cancel
// mid-flight even on the columnar hot path.
func testTraceJSONSized(t *testing.T, blankPropensities bool, n int) []traceio.FlatRecord {
	t.Helper()
	rng := mathx.NewRNG(1)
	old := core.EpsilonGreedyPolicy[float64, int]{
		Base:      func(float64) int { return 0 },
		Decisions: []int{0, 1, 2},
		Epsilon:   0.4,
	}
	var ctxs []float64
	for i := 0; i < n; i++ {
		ctxs = append(ctxs, float64(rng.Intn(3)))
	}
	tr := core.CollectTrace(ctxs, old, func(x float64, d int) float64 {
		return x*float64(d+1) + rng.Normal(0, 0.1)
	}, rng)
	if blankPropensities {
		for i := range tr {
			tr[i].Propensity = 0
		}
	}
	ft := traceio.Flatten(tr,
		func(x float64) []float64 { return []float64{x} },
		func(d int) string { return []string{"a", "b", "c"}[d] })
	return ft.Records
}

// newTestServerOn builds a server on reg from the flag defaults with
// edit applied, its access log silenced unless -v. A configured WAL is
// replayed before it returns; the server is closed at cleanup.
func newTestServerOn(t testing.TB, reg *obs.Registry, edit func(*config)) *server {
	t.Helper()
	cfg, err := parseFlags(nil)
	if err != nil {
		t.Fatal(err)
	}
	if edit != nil {
		edit(&cfg)
	}
	s, err := newServer(cfg, reg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.close)
	if !testing.Verbose() {
		level, _ := obs.ParseLevel(cfg.logLevel) // newServer accepted it
		s.log = obs.NewLogger(io.Discard, level)
	}
	if s.stream != nil {
		s.stream.replay()
	}
	return s
}

// newTestServer is newTestServerOn a registry of the server's own.
func newTestServer(t testing.TB, edit func(*config)) *server {
	t.Helper()
	return newTestServerOn(t, obs.NewRegistry(), edit)
}

// serveTest serves s's routes over httptest until cleanup.
func serveTest(t *testing.T, s *server) *httptest.Server {
	srv := httptest.NewServer(s.routes())
	t.Cleanup(srv.Close)
	return srv
}

// startTest builds a test server and serves it.
func startTest(t *testing.T, edit func(*config)) (*server, *httptest.Server) {
	t.Helper()
	s := newTestServer(t, edit)
	return s, serveTest(t, s)
}

// withWAL enables streaming over a fresh WAL directory.
func withWAL(t *testing.T) func(*config) {
	return func(c *config) { c.walDir = t.TempDir() }
}

func post(t *testing.T, srv *httptest.Server, path string, body any) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestHealthz(t *testing.T) {
	t.Parallel()
	_, srv := startTest(t, nil)
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
}

func TestEvaluateEndpoint(t *testing.T) {
	t.Parallel()
	_, srv := startTest(t, nil)
	resp := post(t, srv, "/evaluate", evalRequest{
		Trace:   testTraceJSON(t, false),
		Policy:  "constant:c",
		Options: evalOptions{Bootstrap: 50},
	})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var out evalResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.DR.N != 400 {
		t.Fatalf("DR.N = %d", out.DR.N)
	}
	if out.DRInterval == nil || out.DRInterval.Lo >= out.DRInterval.Hi {
		t.Fatalf("bad CI %+v", out.DRInterval)
	}
	if out.Diagnostics.N != 400 || out.Diagnostics.ESS <= 0 {
		t.Fatalf("bad diagnostics %+v", out.Diagnostics)
	}
	// Sanity: evaluating constant:c on this world should land near the
	// true value E[3x] = 3 (x uniform on {0,1,2} → mean 1 → 3).
	if out.DR.Value < 2 || out.DR.Value > 4 {
		t.Fatalf("implausible DR value %g", out.DR.Value)
	}
}

func TestEvaluateEstimatesPropensities(t *testing.T) {
	t.Parallel()
	_, srv := startTest(t, nil)
	// Without estimation: 400.
	resp := post(t, srv, "/evaluate", evalRequest{
		Trace:  testTraceJSON(t, true),
		Policy: "constant:c",
	})
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	// With estimation: 200.
	resp = post(t, srv, "/evaluate", evalRequest{
		Trace:   testTraceJSON(t, true),
		Policy:  "constant:c",
		Options: evalOptions{EstimatePropensities: true},
	})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
}

func TestDiagnoseEndpoint(t *testing.T) {
	t.Parallel()
	_, srv := startTest(t, nil)
	resp := post(t, srv, "/diagnose", evalRequest{
		Trace:  testTraceJSON(t, false),
		Policy: "best-observed",
	})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var out diagnosticsJSON
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.N != 400 {
		t.Fatalf("N = %d", out.N)
	}
}

func TestEvaluateBadRequests(t *testing.T) {
	t.Parallel()
	_, srv := startTest(t, nil)
	cases := []struct {
		name string
		body any
	}{
		{"empty trace", evalRequest{Policy: "constant:c"}},
		{"bad policy", evalRequest{Trace: testTraceJSON(t, false), Policy: "wat"}},
	}
	for _, c := range cases {
		resp := post(t, srv, "/evaluate", c.body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", c.name, resp.StatusCode)
		}
	}
	// Malformed JSON, and a valid body followed by anything but
	// whitespace: one request is one JSON value.
	valid := `{"trace":[{"features":[1,2],"decision":"a","reward":0.5,"propensity":0.5}],"policy":"constant:a"}`
	for name, body := range map[string]string{
		"malformed JSON":       "{nope",
		"trailing garbage":     valid + " garbage",
		"two concatenated":     valid + valid,
		"trailing close brace": valid + "}",
	} {
		code, got := postRaw(t, srv, "/evaluate", body)
		if code != http.StatusBadRequest || !strings.Contains(got, "invalid request body") {
			t.Fatalf("%s: status %d %s, want 400 invalid request body", name, code, got)
		}
	}
	// Trailing whitespace is fine.
	if code, got := postRaw(t, srv, "/evaluate", valid+" \n\t"); code != http.StatusOK {
		t.Fatalf("trailing whitespace: status %d %s", code, got)
	}
	// Wrong method.
	resp, err := http.Get(srv.URL + "/evaluate")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /evaluate: status %d, want 405", resp.StatusCode)
	}
}

// postRaw POSTs body as is and returns the status and response body.
func postRaw(t *testing.T, srv *httptest.Server, path, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
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

// TestEvaluateIntervalIsBootstrapDRViewSeeded pins drInterval to
// core.BootstrapDRViewSeeded over the request's trace, policy, options
// and seed — the call dreval -bootstrap makes, so both tools print the
// same interval for the same inputs.
func TestEvaluateIntervalIsBootstrapDRViewSeeded(t *testing.T) {
	t.Parallel()
	_, srv := startTest(t, nil)
	recs := testTraceJSON(t, false)
	opts := evalOptions{Clip: 10, SelfNormalize: true, Bootstrap: 80, Seed: 9}
	resp := post(t, srv, "/evaluate", evalRequest{Trace: recs, Policy: "best-observed", Options: opts})
	defer resp.Body.Close()
	var out evalResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %v", resp.StatusCode, err)
	}
	trace := traceio.ToCore(traceio.FlatTrace{Records: recs})
	view, err := core.NewTraceViewKeyed(trace, traceio.FlatContext.Key)
	if err != nil {
		t.Fatal(err)
	}
	policy, err := traceio.ParsePolicy("best-observed", trace)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.BootstrapDRViewSeeded(view, policy, core.DROptions{Clip: 10, SelfNormalize: true}, 9, 80, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.DRInterval; got == nil || *got != (intervalJSON{Lo: want.Lo, Hi: want.Hi, Level: want.Level}) {
		t.Fatalf("drInterval %+v, BootstrapDRViewSeeded %+v", got, want)
	}
}

// TestConfig pins parseFlags' defaults and every setting validate
// rejects, flag by flag.
func TestConfig(t *testing.T) {
	t.Parallel()
	cfg, err := parseFlags(nil)
	if err != nil {
		t.Fatal(err)
	}
	want := config{
		addr:                ":8080",
		logLevel:            "info",
		requestTimeout:      60 * time.Second,
		drainTimeout:        10 * time.Second,
		maxConcurrent:       64,
		maxQueue:            256,
		thresholds:          resilience.Thresholds{ESSRatioFloor: 0.1, MaxWeightCeiling: 100, ZeroSupportCap: 0.5},
		fallbackClip:        10,
		biasWindows:         8,
		biasDriftThreshold:  5,
		fsync:               "always",
		fsyncInterval:       100 * time.Millisecond,
		segmentBytes:        64 << 20,
		ingestMaxBytes:      16 << 20,
		ingestMaxConcurrent: 16,
		ingestMaxQueue:      64,
		eventsBuffer:        1024,
		eventsSample:        1,
		eventsSlowMs:        250,
		eventsSeed:          1,
		maxBodyBytes:        64 << 20,
	}
	if cfg != want {
		t.Fatalf("defaults\n got %+v\nwant %+v", cfg, want)
	}
	if err := cfg.validate(); err != nil {
		t.Fatalf("defaults rejected: %v", err)
	}

	dir := t.TempDir()
	badSLO := filepath.Join(dir, "slo.json")
	if err := os.WriteFile(badSLO, []byte(`{"objectives":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-drain-timeout", "0s"}, "-drain-timeout must be > 0"},
		{[]string{"-request-timeout", "-1s"}, "-request-timeout must be >= 0"},
		{[]string{"-max-concurrent", "0"}, "-max-concurrent must be >= 1"},
		{[]string{"-max-queue", "-1"}, "-max-queue must be >= 0"},
		{[]string{"-ess-ratio-floor", "-0.1"}, "degradation thresholds must be >= 0"},
		{[]string{"-max-weight-ceiling", "-1"}, "degradation thresholds must be >= 0"},
		{[]string{"-zero-support-cap", "-1"}, "degradation thresholds must be >= 0"},
		{[]string{"-fallback-clip", "0"}, "-fallback-clip must be > 0"},
		{[]string{"-bias-windows", "-1"}, "-bias-windows must be >= 0"},
		{[]string{"-bias-drift-threshold", "0"}, "-bias-drift-threshold must be > 0"},
		{[]string{"-events-buffer", "0"}, "-events-buffer must be >= 1"},
		{[]string{"-events-sample", "-0.1"}, "-events-sample must be in [0, 1]"},
		{[]string{"-events-sample", "1.5"}, "-events-sample must be in [0, 1]"},
		{[]string{"-events-slow-ms", "-1"}, "-events-slow-ms must be >= 0"},
		{[]string{"-log-level", "loud"}, "loud"},
		{[]string{"-fsync", "sometimes"}, "-fsync: "},
		{[]string{"-ingest-max-bytes", "0"}, "-ingest-max-bytes must be >= 1"},
		{[]string{"-ingest-max-concurrent", "0"}, "-ingest-max-concurrent must be >= 1"},
		{[]string{"-ingest-max-queue", "-1"}, "-ingest-max-queue must be >= 0"},
		{[]string{"-bias-refresh", "-1"}, "-bias-refresh must be >= 0"},
		{[]string{"-slo-config", filepath.Join(dir, "missing.json")}, "-slo-config: "},
		{[]string{"-slo-config", badSLO}, "-slo-config: slo: config needs at least one objective"},
	} {
		cfg, err := parseFlags(c.args)
		if err != nil {
			t.Fatalf("%v: %v", c.args, err)
		}
		if err := cfg.validate(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%v: validate = %v, want an error containing %q", c.args, err, c.want)
		}
		if _, err := newServer(cfg, obs.NewRegistry()); err == nil {
			t.Errorf("%v: newServer accepted the config", c.args)
		}
	}
}

// TestServersShareNothing runs two servers in one process at once: the
// same body degrades on the one with an impossible -ess-ratio-floor and
// not on the other, and each counts only its own degradations.
func TestServersShareNothing(t *testing.T) {
	t.Parallel()
	body := string(marshal(t, evalRequest{Trace: testTraceJSON(t, false), Policy: "constant:a"}))
	strict, strictSrv := startTest(t, func(c *config) { c.thresholds.ESSRatioFloor = 1 })
	loose, looseSrv := startTest(t, func(c *config) { c.thresholds.ESSRatioFloor = 0 })
	const perServer = 4
	var wg sync.WaitGroup
	for _, c := range []struct {
		srv      *httptest.Server
		degraded bool
	}{{strictSrv, true}, {looseSrv, false}} {
		for i := 0; i < perServer; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				resp, err := http.Post(c.srv.URL+"/evaluate", "application/json", strings.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				defer resp.Body.Close()
				var out evalResponse
				if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
					t.Error(err)
					return
				}
				if out.Degraded != c.degraded {
					t.Errorf("degraded = %v, want %v (reasons %+v)", out.Degraded, c.degraded, out.DegradedReasons)
				}
			}()
		}
	}
	wg.Wait()
	if got := strict.m.degraded.Value(); got != perServer {
		t.Fatalf("strict server counted %d degraded responses, want %d", got, perServer)
	}
	if got := loose.m.degraded.Value(); got != 0 {
		t.Fatalf("loose server counted %d degraded responses, want 0", got)
	}
	for _, s := range []*server{strict, loose} {
		if got := s.journal.Stats().Emitted; got != perServer {
			t.Fatalf("a journal holds %d events, want its own %d", got, perServer)
		}
	}
}
