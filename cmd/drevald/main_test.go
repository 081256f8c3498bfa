package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"drnet/internal/core"
	"drnet/internal/mathx"
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
	srv := httptest.NewServer(newMux())
	defer srv.Close()
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
	srv := httptest.NewServer(newMux())
	defer srv.Close()
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
	srv := httptest.NewServer(newMux())
	defer srv.Close()
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
	srv := httptest.NewServer(newMux())
	defer srv.Close()
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
	srv := httptest.NewServer(newMux())
	defer srv.Close()
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
	// Malformed JSON.
	resp, err := http.Post(srv.URL+"/evaluate", "application/json", bytes.NewReader([]byte("{nope")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed JSON: status %d", resp.StatusCode)
	}
	// Wrong method.
	resp, err = http.Get(srv.URL + "/evaluate")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /evaluate: status %d, want 405", resp.StatusCode)
	}
}

// TestEvaluateIntervalIsBootstrapDRViewSeeded pins drInterval to
// core.BootstrapDRViewSeeded over the request's trace, policy, options
// and seed — the call dreval -bootstrap makes, so both tools print the
// same interval for the same inputs.
func TestEvaluateIntervalIsBootstrapDRViewSeeded(t *testing.T) {
	srv := httptest.NewServer(newMux())
	defer srv.Close()
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
