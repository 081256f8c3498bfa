package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"drnet/internal/obs"
	"drnet/internal/parallel"
	"drnet/internal/resilience"
)

// The chaos suite: fault injection, cancellation, load shedding and
// degradation, all driven through the real HTTP surface. Every test is
// named TestChaos* so CI can run the suite alone under -race.

// TestChaosCancelMidBootstrap is the acceptance test for end-to-end
// cancellation: a client abandons a large /evaluate mid-bootstrap; the
// pool must stop scheduling resample chunks (observed via the pool's
// cancelled-chunk counter) and the handler must finish promptly
// (observed via the route's in-flight gauge returning to zero long
// before the bootstrap could have completed).
func TestChaosCancelMidBootstrap(t *testing.T) {
	parallel.SetDefaultWorkers(2)
	defer parallel.SetDefaultWorkers(0)
	s, srv := startTest(t, nil)

	// A large trace keeps the columnar bootstrap busy for seconds, so
	// the cancel lands mid-flight rather than after completion.
	body, err := json.Marshal(evalRequest{
		Trace:   testTraceJSONSized(t, false, 60000),
		Policy:  "constant:c",
		Options: evalOptions{Bootstrap: maxBootstrapResamples, Seed: 5},
	})
	if err != nil {
		t.Fatal(err)
	}

	cancelled := obs.Default.Counter("obs_pool_cancelled_chunks_total")
	executed := obs.Default.Counter("obs_pool_tasks_total")
	inFlight := s.reg.Gauge("drevald_http_in_flight", obs.L("route", "/evaluate"))
	cancelledBefore := cancelled.Value()
	executedBefore := executed.Value()

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, srv.URL+"/evaluate", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	clientErr := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
			err = fmt.Errorf("request unexpectedly completed with status %d", resp.StatusCode)
		}
		clientErr <- err
	}()

	// Let the request reach the bootstrap, then abandon it. Waiting on
	// wall-clock alone is racy (the cancel could land while the handler
	// is still decoding JSON, before any pool dispatch), so wait until
	// the pool has executed well more chunks than every pre-bootstrap
	// phase combined (~30 chunks per estimator dispatch at this trace
	// size) — at that point the 10k-resample bootstrap is mid-flight.
	deadline := time.Now().Add(10 * time.Second)
	for inFlight.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("request never reached the handler")
		}
		time.Sleep(5 * time.Millisecond)
	}
	for executed.Value() < executedBefore+200 {
		if time.Now().After(deadline) {
			t.Fatal("request never reached the bootstrap")
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancelStart := time.Now()
	cancel()

	if err := <-clientErr; err == nil || !strings.Contains(err.Error(), "context canceled") {
		t.Fatalf("client error = %v, want context canceled", err)
	}

	// The handler must wind down promptly: in-flight back to zero well
	// within the couple of seconds a full 10k-resample bootstrap could
	// never fit in.
	for inFlight.Value() != 0 {
		if time.Since(cancelStart) > 5*time.Second {
			t.Fatalf("in-flight gauge still %g after cancel", inFlight.Value())
		}
		time.Sleep(5 * time.Millisecond)
	}
	// And the pool must have observed the cancellation: chunks that were
	// queued but never scheduled are counted.
	waitDeadline := time.Now().Add(5 * time.Second)
	for cancelled.Value() == cancelledBefore {
		if time.Now().After(waitDeadline) {
			t.Fatal("pool cancelled-chunk counter never advanced")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestChaosRequestTimeout: with a tiny -request-timeout, a heavy
// /evaluate answers 503 with the machine-readable timeout flag.
func TestChaosRequestTimeout(t *testing.T) {
	t.Parallel()
	_, srv := startTest(t, func(c *config) { c.requestTimeout = time.Millisecond })

	resp := post(t, srv, "/evaluate", evalRequest{
		Trace:   testTraceJSON(t, false),
		Policy:  "constant:c",
		Options: evalOptions{Bootstrap: maxBootstrapResamples, Seed: 5},
	})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	var out evalErrorJSON
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if !out.Timeout || out.Error == "" {
		t.Fatalf("body %+v, want timeout:true with a message", out)
	}
}

// TestChaosLoadShedding: with a 1-slot, 0-queue limiter, a second
// concurrent request is shed with 429 + Retry-After and the shed
// counter ticks; after the slot frees, requests flow again.
func TestChaosLoadShedding(t *testing.T) {
	t.Parallel()
	s, srv := startTest(t, func(c *config) { c.maxConcurrent, c.maxQueue = 1, 0 })

	// Occupy the only compute slot directly.
	release, _, err := s.evalLimiter.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	shed := s.reg.Counter("drevald_load_shed_total", obs.L("route", "/evaluate"))
	shedBefore := shed.Value()

	resp := post(t, srv, "/evaluate", evalRequest{Trace: testTraceJSON(t, false), Policy: "constant:c"})
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if shed.Value() != shedBefore+1 {
		t.Fatalf("shed counter %d, want %d", shed.Value(), shedBefore+1)
	}

	release()
	resp = post(t, srv, "/evaluate", evalRequest{Trace: testTraceJSON(t, false), Policy: "constant:c"})
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status after release %d, want 200", resp.StatusCode)
	}
}

// TestChaosQueuedRequestProceeds: a request that finds all compute
// slots busy but queue room waits, then completes once the slot frees.
func TestChaosQueuedRequestProceeds(t *testing.T) {
	t.Parallel()
	s, srv := startTest(t, func(c *config) { c.maxConcurrent, c.maxQueue = 1, 1 })

	release, _, err := s.evalLimiter.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	status := make(chan int, 1)
	go func() {
		resp := post(t, srv, "/evaluate", evalRequest{Trace: testTraceJSON(t, false), Policy: "constant:c"})
		resp.Body.Close()
		status <- resp.StatusCode
	}()
	// The request should be parked in the queue, not answered.
	select {
	case code := <-status:
		t.Fatalf("queued request answered %d before the slot freed", code)
	case <-time.After(100 * time.Millisecond):
	}
	release()
	select {
	case code := <-status:
		if code != http.StatusOK {
			t.Fatalf("queued request: status %d, want 200", code)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("queued request never completed")
	}
}

// TestChaosPanicRecovery: an injected handler panic becomes a 500 and a
// drevald_panics_total tick; the server keeps serving afterwards.
func TestChaosPanicRecovery(t *testing.T) {
	s, srv := startTest(t, nil)

	panicsBefore := s.m.panics.Value()
	resilience.Activate(resilience.NewFaultPlan(11).
		Add("http/evaluate", resilience.FaultSpec{PanicProb: 1}))
	resp := post(t, srv, "/evaluate", evalRequest{Trace: testTraceJSON(t, false), Policy: "constant:c"})
	resp.Body.Close()
	resilience.Deactivate()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", resp.StatusCode)
	}
	if s.m.panics.Value() != panicsBefore+1 {
		t.Fatalf("panics counter %d, want %d", s.m.panics.Value(), panicsBefore+1)
	}
	// The process survived; the service keeps answering.
	r2, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusOK {
		t.Fatalf("healthz after panic: %d", r2.StatusCode)
	}
}

// TestChaosInjectedHandlerError: an injected fault (non-panic) at the
// HTTP boundary surfaces as a 500 with a JSON error, never a torn
// response.
func TestChaosInjectedHandlerError(t *testing.T) {
	_, srv := startTest(t, nil)
	resilience.Activate(resilience.NewFaultPlan(12).
		Add("http/evaluate", resilience.FaultSpec{ErrProb: 1}))
	resp := post(t, srv, "/evaluate", evalRequest{Trace: testTraceJSON(t, false), Policy: "constant:c"})
	resilience.Deactivate()
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", resp.StatusCode)
	}
	var out map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out["error"] == "" {
		t.Fatal("500 without a JSON error body")
	}
}

// TestChaosPoolFaultSurfacesAsError: an injected fault inside a pool
// task fails the /evaluate with a structured error (422), not a panic
// or a hang.
func TestChaosPoolFaultSurfacesAsError(t *testing.T) {
	_, srv := startTest(t, nil)
	resilience.Activate(resilience.NewFaultPlan(13).
		Add(resilience.PointPoolTask, resilience.FaultSpec{ErrProb: 1}))
	resp := post(t, srv, "/evaluate", evalRequest{
		Trace:   testTraceJSON(t, false),
		Policy:  "constant:c",
		Options: evalOptions{Bootstrap: 50, Seed: 3},
	})
	resilience.Deactivate()
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422", resp.StatusCode)
	}
}

// TestChaosFaultsOffByteDeterminism: activating and deactivating a
// fault plan leaves zero residue — the same request then produces a
// byte-identical body to one from a never-faulted server.
func TestChaosFaultsOffByteDeterminism(t *testing.T) {
	_, srv := startTest(t, nil)
	reqBody := evalRequest{
		Trace:   testTraceJSON(t, false),
		Policy:  "constant:c",
		Options: evalOptions{Bootstrap: 100, Seed: 11},
	}
	read := func() []byte {
		resp := post(t, srv, "/evaluate", reqBody)
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	want := read()
	resilience.Activate(resilience.NewFaultPlan(17).
		Add(resilience.PointPoolTask, resilience.FaultSpec{LatencyProb: 0.5, Latency: time.Millisecond}))
	during := read() // latency-only faults must not change bytes
	resilience.Deactivate()
	after := read()
	if !bytes.Equal(during, want) {
		t.Fatal("latency-only fault plan changed response bytes")
	}
	if !bytes.Equal(after, want) {
		t.Fatal("response bytes differ after fault plan deactivation")
	}
}

// TestChaosDegradedResponse: when diagnostics cross the configured
// thresholds /evaluate still answers 200 with every requested estimate,
// tagged degraded with machine-readable reasons and a clipped-SNIPS
// fallback — and the whole degraded body is bit-deterministic across
// worker counts.
func TestChaosDegradedResponse(t *testing.T) {
	defer parallel.SetDefaultWorkers(0)
	reqBody := evalRequest{
		Trace:   testTraceJSON(t, false),
		Policy:  "constant:c",
		Options: evalOptions{Bootstrap: 50, Seed: 9},
	}
	var want []byte
	for _, w := range []int{1, 2, 8} {
		parallel.SetDefaultWorkers(w)
		// A floor of 1.0 means any importance weighting at all (ESS < N)
		// trips degradation on the standard test trace.
		s, srv := startTest(t, func(c *config) { c.thresholds = resilience.Thresholds{ESSRatioFloor: 1.0} })
		resp := post(t, srv, "/evaluate", reqBody)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("workers=%d: degraded request must stay 200, got %d", w, resp.StatusCode)
		}
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if s.m.degraded.Value() != 1 {
			t.Fatalf("workers=%d: degraded counter %d, want 1", w, s.m.degraded.Value())
		}
		if want == nil {
			want = buf.Bytes()
			continue
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("workers=%d: degraded response not byte-identical", w)
		}
	}
	var out evalResponse
	if err := json.Unmarshal(want, &out); err != nil {
		t.Fatal(err)
	}
	if !out.Degraded {
		t.Fatal("response not tagged degraded")
	}
	if len(out.DegradedReasons) == 0 || out.DegradedReasons[0].Code != resilience.ReasonESSRatio {
		t.Fatalf("degradedReasons = %+v, want ess_ratio_below_floor first", out.DegradedReasons)
	}
	if out.Fallback == nil || out.Fallback.Estimator != "snips-clip" || out.Fallback.Estimate.N != 400 {
		t.Fatalf("fallback = %+v, want snips-clip over 400 records", out.Fallback)
	}
	if out.DR.N != 400 || out.DRInterval == nil {
		t.Fatal("degraded response dropped the requested estimates")
	}
}

// TestChaosHealthyNotDegraded: a well-overlapped request must NOT
// degrade under the default thresholds — degradation is for
// pathological overlap, not every request. Evaluating constant:a, the
// logging policy's own modal decision (~73% of records), keeps all
// three diagnostics inside the default envelope, whereas constant:c
// (used by TestChaosDegradedResponse's threshold override) leaves ~89%
// of records with zero support.
func TestChaosHealthyNotDegraded(t *testing.T) {
	t.Parallel()
	_, srv := startTest(t, nil)
	resp := post(t, srv, "/evaluate", evalRequest{Trace: testTraceJSON(t, false), Policy: "constant:a"})
	defer resp.Body.Close()
	var out evalResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Degraded || out.Fallback != nil || len(out.DegradedReasons) != 0 {
		t.Fatalf("healthy trace degraded: %+v", out.DegradedReasons)
	}
}

// TestChaosShutdownDrainsUnderFaults: SIGTERM lands while several
// bootstrap-heavy requests are in flight AND a latency fault plan is
// slowing every pool task; all in-flight requests must still drain to
// 200, and the closed listener must refuse new connections quickly.
func TestChaosShutdownDrainsUnderFaults(t *testing.T) {
	s, url, stop, done := startTestServer(t)

	resilience.Activate(resilience.NewFaultPlan(19).
		Add(resilience.PointPoolTask, resilience.FaultSpec{LatencyProb: 0.25, Latency: time.Millisecond}))
	defer resilience.Deactivate()

	body, err := json.Marshal(evalRequest{
		Trace:   testTraceJSON(t, false),
		Policy:  "constant:c",
		Options: evalOptions{Bootstrap: 150, Seed: 7},
	})
	if err != nil {
		t.Fatal(err)
	}
	const clients = 4
	var wg sync.WaitGroup
	statuses := make([]int, clients)
	errs := make([]error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			resp, err := http.Post(url+"/evaluate", "application/json", bytes.NewReader(body))
			if err != nil {
				errs[c] = err
				return
			}
			defer resp.Body.Close()
			var out evalResponse
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				errs[c] = err
				return
			}
			statuses[c] = resp.StatusCode
		}(c)
	}

	time.Sleep(50 * time.Millisecond)
	stop <- syscall.SIGTERM
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v", err)
		}
	case <-time.After(s.cfg.drainTimeout + 5*time.Second):
		t.Fatal("server did not shut down under faulted load")
	}
	wg.Wait()
	for c := 0; c < clients; c++ {
		if errs[c] != nil {
			t.Fatalf("client %d: %v", c, errs[c])
		}
		if statuses[c] != http.StatusOK {
			t.Fatalf("client %d: status %d, want 200", c, statuses[c])
		}
	}
	// Late request: the listener is closed, so this must fail fast at
	// the dial, not hang.
	lateStart := time.Now()
	if resp, err := http.Get(url + "/healthz"); err == nil {
		resp.Body.Close()
		t.Fatal("server accepted a connection after shutdown")
	}
	if time.Since(lateStart) > 2*time.Second {
		t.Fatal("late request did not fail fast")
	}
}

// TestChaosRejectsHostileInputs pins the input-hardening satellite at
// the HTTP layer: non-finite numerics and oversized bootstrap counts
// are 400s with actionable messages, not computation.
func TestChaosRejectsHostileInputs(t *testing.T) {
	t.Parallel()
	_, srv := startTest(t, nil)
	cases := []struct {
		name string
		body string
		want string
	}{
		{
			"bootstrap over cap",
			fmt.Sprintf(`{"trace":[{"features":[1],"decision":"a","reward":1,"propensity":0.5}],"policy":"constant:a","options":{"bootstrap":%d}}`, maxBootstrapResamples+1),
			"exceeds the maximum",
		},
		{
			"negative bootstrap",
			`{"trace":[{"features":[1],"decision":"a","reward":1,"propensity":0.5}],"policy":"constant:a","options":{"bootstrap":-1}}`,
			"must not be negative",
		},
	}
	for _, c := range cases {
		resp, err := http.Post(srv.URL+"/evaluate", "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		_, _ = buf.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400 (body %s)", c.name, resp.StatusCode, buf.String())
		}
		if !strings.Contains(buf.String(), c.want) {
			t.Fatalf("%s: body %q does not explain the rejection (%q)", c.name, buf.String(), c.want)
		}
	}
}

// TestChaosHealthzSurfacesResilienceConfig: /healthz reports the drain
// and request timeouts so orchestrators can size grace periods.
func TestChaosHealthzSurfacesResilienceConfig(t *testing.T) {
	t.Parallel()
	s, srv := startTest(t, nil)
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out healthJSON
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.DrainTimeoutSeconds != s.cfg.drainTimeout.Seconds() || out.DrainTimeoutSeconds <= 0 {
		t.Fatalf("drainTimeoutSeconds = %g, want %g", out.DrainTimeoutSeconds, s.cfg.drainTimeout.Seconds())
	}
	if out.RequestTimeoutSeconds != s.cfg.requestTimeout.Seconds() {
		t.Fatalf("requestTimeoutSeconds = %g, want %g", out.RequestTimeoutSeconds, s.cfg.requestTimeout.Seconds())
	}
}
