package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sync"
	"syscall"
	"testing"
	"time"

	"drnet/internal/obs"
	"drnet/internal/parallel"
)

// startTestServer boots the real serve/shutdown lifecycle (not
// httptest) on a loopback port and returns the server, its base URL,
// the stop channel and a channel carrying serve's exit error.
func startTestServer(t *testing.T) (s *server, url string, stop chan os.Signal, done chan error) {
	t.Helper()
	s = newTestServer(t, nil)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	stop = make(chan os.Signal, 1)
	done = make(chan error, 1)
	go func() { done <- s.serve(ln, stop) }()
	return s, "http://" + ln.Addr().String(), stop, done
}

// TestGracefulShutdownDrainsInFlight is the SIGTERM regression test:
// a slow /evaluate (large bootstrap) is in flight when the signal
// arrives; the server must finish that request with 200 before run
// returns, and must refuse new connections afterwards.
func TestGracefulShutdownDrainsInFlight(t *testing.T) {
	t.Parallel()
	s, url, stop, done := startTestServer(t)

	body, err := json.Marshal(evalRequest{
		Trace:   testTraceJSON(t, false),
		Policy:  "constant:c",
		Options: evalOptions{Bootstrap: 250, Seed: 7},
	})
	if err != nil {
		t.Fatal(err)
	}
	type result struct {
		status int
		ci     bool
		err    error
	}
	// The body's last byte is held back until the request is seen in the
	// handler, so it cannot finish between two polls of the gauge.
	pr, pw := io.Pipe()
	defer pw.Close()
	inFlight := make(chan result, 1)
	go func() {
		resp, err := http.Post(url+"/evaluate", "application/json", pr)
		if err != nil {
			inFlight <- result{err: err}
			return
		}
		defer resp.Body.Close()
		var out evalResponse
		decErr := json.NewDecoder(resp.Body).Decode(&out)
		inFlight <- result{
			status: resp.StatusCode,
			ci:     decErr == nil && out.DRInterval != nil && out.DRInterval.Lo < out.DRInterval.Hi,
		}
	}()

	// Wait until the request is in the handler, then deliver SIGTERM —
	// the signal run registers alongside os.Interrupt. The bootstrap is
	// sized to drain well inside -drain-timeout even under -race.
	if _, err := pw.Write(body[:len(body)-1]); err != nil {
		t.Fatal(err)
	}
	serving := s.reg.Gauge("drevald_http_in_flight", obs.L("route", "/evaluate"))
	for deadline := time.Now().Add(10 * time.Second); serving.Value() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("request never reached the handler")
		}
	}
	stop <- syscall.SIGTERM
	if _, err := pw.Write(body[len(body)-1:]); err != nil {
		t.Fatal(err)
	}
	pw.Close()

	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve returned %v", err)
		}
	case <-time.After(s.cfg.drainTimeout + 5*time.Second):
		t.Fatal("server did not shut down")
	}
	select {
	case r := <-inFlight:
		if r.err != nil {
			t.Fatalf("in-flight request failed: %v", r.err)
		}
		if r.status != http.StatusOK || !r.ci {
			t.Fatalf("in-flight request: status %d, valid CI %v", r.status, r.ci)
		}
	case <-time.After(time.Second):
		t.Fatal("in-flight request never completed")
	}
	// After shutdown the port must be closed.
	if resp, err := http.Get(url + "/healthz"); err == nil {
		resp.Body.Close()
		t.Fatal("server still accepting connections after shutdown")
	}
}

// TestEvaluateConcurrentStress hammers /evaluate from 32 concurrent
// clients, with bootstraps fanning out onto the shared worker pool
// inside each request. Run under `go test -race` this is the service's
// data-race canary, and it doubles as a determinism check: every client
// sends the same request and must get byte-identical bodies back.
func TestEvaluateConcurrentStress(t *testing.T) {
	t.Parallel()
	_, url, stop, done := startTestServer(t)
	defer func() {
		stop <- syscall.SIGTERM
		<-done
	}()

	body, err := json.Marshal(evalRequest{
		Trace:   testTraceJSON(t, false),
		Policy:  "constant:c",
		Options: evalOptions{Bootstrap: 10, Seed: 3},
	})
	if err != nil {
		t.Fatal(err)
	}

	// 32 concurrent clients; per-request work is kept light so the
	// single-CPU -race run doesn't starve the accept loop past
	// ReadHeaderTimeout — the test targets races, not throughput.
	const clients = 32
	const requestsPerClient = 2
	bodies := make([][]byte, clients)
	var wg sync.WaitGroup
	errc := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; k < requestsPerClient; k++ {
				resp, err := http.Post(url+"/evaluate", "application/json", bytes.NewReader(body))
				if err != nil {
					errc <- err
					return
				}
				var buf bytes.Buffer
				_, err = buf.ReadFrom(resp.Body)
				resp.Body.Close()
				if err != nil {
					errc <- err
					return
				}
				if resp.StatusCode != http.StatusOK {
					errc <- fmt.Errorf("client %d: status %d: %s", c, resp.StatusCode, buf.String())
					return
				}
				bodies[c] = buf.Bytes()
			}
		}(c)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	for c := 1; c < clients; c++ {
		if !bytes.Equal(bodies[c], bodies[0]) {
			t.Fatalf("client %d received a different response body under load", c)
		}
	}
}

// TestEvaluateDeterministicAcrossWorkerCounts asserts the full HTTP
// response — bootstrap interval included — is byte-identical when the
// pool runs 1, 2 or 8 workers wide.
func TestEvaluateDeterministicAcrossWorkerCounts(t *testing.T) {
	defer parallel.SetDefaultWorkers(0)
	body, err := json.Marshal(evalRequest{
		Trace:   testTraceJSON(t, false),
		Policy:  "constant:c",
		Options: evalOptions{Bootstrap: 100, Seed: 11},
	})
	if err != nil {
		t.Fatal(err)
	}
	var want []byte
	for _, w := range []int{1, 2, 8} {
		parallel.SetDefaultWorkers(w)
		_, url, stop, done := startTestServer(t)
		resp, err := http.Post(url+"/evaluate", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		stop <- syscall.SIGTERM
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("workers=%d: status %d", w, resp.StatusCode)
		}
		if want == nil {
			want = buf.Bytes()
			continue
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("workers=%d: response differs from workers=1:\n%s\nvs\n%s", w, buf.String(), want)
		}
	}
}
