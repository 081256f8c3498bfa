package main

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// answer renders the reply drevald should give for ref.
func answer(ref reference) evalReply {
	r := evalReply{
		DM:  estimateReply{ref.dm.Value, ref.dm.StdErr},
		IPS: estimateReply{ref.ips.Value, ref.ips.StdErr},
		DR:  estimateReply{ref.dr.Value, ref.dr.StdErr},
	}
	if ref.ci != nil {
		r.DRInterval = &intervalReply{Lo: ref.ci.Lo, Hi: ref.ci.Hi, Level: ref.ci.Level}
	}
	return r
}

// fake serves whatever reply() returns, as JSON with status 200.
func fake(t *testing.T, reply func() any) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		if err := json.NewEncoder(w).Encode(reply()); err != nil {
			t.Error(err)
		}
	}))
	t.Cleanup(srv.Close)
	return srv
}

func up(v float64) float64 { return math.Nextafter(v, math.Inf(1)) }

func TestEvaluateCheckFailsOnAnyPerturbation(t *testing.T) {
	_, raw, refs, err := evalSpec{records: 300, contexts: 10, bootstrap: 20}.inputs(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		tamper func(*evalReply)
		ok     bool
	}{
		{"exact", func(*evalReply) {}, true},
		{"dr value one ulp off", func(r *evalReply) { r.DR.Value = up(r.DR.Value) }, false},
		{"dm value one ulp off", func(r *evalReply) { r.DM.Value = up(r.DM.Value) }, false},
		{"ips stdErr one ulp off", func(r *evalReply) { r.IPS.StdErr = up(r.IPS.StdErr) }, false},
		{"interval bound one ulp off", func(r *evalReply) { r.DRInterval.Hi = up(r.DRInterval.Hi) }, false},
		{"interval missing", func(r *evalReply) { r.DRInterval = nil }, false},
		{"degraded", func(r *evalReply) { r.Degraded = true }, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := fake(t, func() any {
				r := answer(refs[0])
				tc.tamper(&r)
				return r
			})
			err := evaluate(context.Background(), srv.Client(), srv.URL, raw[0], refs[0])
			if (err == nil) != tc.ok {
				t.Fatalf("evaluate error = %v, want ok=%v", err, tc.ok)
			}
		})
	}
}

func TestMismatchesCountAsFailedOperations(t *testing.T) {
	_, raw, refs, err := evalSpec{records: 300, contexts: 10}.inputs(2)
	if err != nil {
		t.Fatal(err)
	}
	srv := fake(t, func() any {
		r := answer(refs[0])
		r.DR.StdErr *= 1 + 1e-15
		return r
	})
	e := &env{client: srv.Client(), t: &tally{}}
	// Every request carries payload 0, whose answer is perturbed.
	lat, _ := driveEval(context.Background(), e, srv.URL, raw[:1], refs[:1], 0, 6)
	attempted, failed := e.t.counts()
	if attempted != 6 || failed != 6 || len(lat) != 0 {
		t.Fatalf("attempted %d, failed %d, %d latencies; want 6, 6, 0", attempted, failed, len(lat))
	}
}

func TestEvaluateFailsOnErrorStatus(t *testing.T) {
	_, raw, refs, err := evalSpec{records: 300, contexts: 10}.inputs(3)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, `{"error":"overloaded"}`, http.StatusTooManyRequests)
	}))
	defer srv.Close()
	if err := evaluate(context.Background(), srv.Client(), srv.URL, raw[0], refs[0]); err == nil {
		t.Fatal("a 429 passed the check")
	}
}

func TestIngestCheckFailsOnSkippedEpoch(t *testing.T) {
	st := newStream(1)
	for _, tc := range []struct {
		name string
		ack  ingestReply
		ok   bool
	}{
		{"exact", ingestReply{Acked: 100, Durable: true, Epoch: 500}, true},
		{"skipped an epoch", ingestReply{Acked: 100, Durable: true, Epoch: 600}, false},
		{"not durable", ingestReply{Acked: 100, Durable: false, Epoch: 500}, false},
		{"short batch", ingestReply{Acked: 99, Durable: true, Epoch: 499}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := fake(t, func() any { return tc.ack })
			err := ingestBatch(context.Background(), srv.Client(), srv.URL, st.body(4), st.batch, 500)
			if (err == nil) != tc.ok {
				t.Fatalf("ingestBatch error = %v, want ok=%v", err, tc.ok)
			}
		})
	}
}

func TestStreamedCheckToleratesOnlyStdErrRounding(t *testing.T) {
	st := newStream(1)
	ref, err := evalReference(evalBody{Trace: st.prefix(5), Policy: "best-observed", Options: evalOptions{Clip: readClip}})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		tamper func(*evalReply)
		ok     bool
	}{
		{"exact", func(*evalReply) {}, true},
		{"stdErr rounded", func(r *evalReply) { r.DR.StdErr *= 1 + 1e-12 }, true},
		{"stdErr off", func(r *evalReply) { r.DR.StdErr *= 1 + 1e-6 }, false},
		{"value one ulp off", func(r *evalReply) { r.IPS.Value = up(r.IPS.Value) }, false},
		{"wrong epoch", func(r *evalReply) { r.Stream.Epoch -= 100 }, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := fake(t, func() any {
				r := answer(ref)
				r.Stream = &streamReply{Epoch: 500}
				tc.tamper(&r)
				return r
			})
			err := checkStreamed(context.Background(), srv.Client(), srv.URL, streamRead, 500, &ref)
			if (err == nil) != tc.ok {
				t.Fatalf("checkStreamed error = %v, want ok=%v", err, tc.ok)
			}
		})
	}
}

func TestReaderEpochsMustNotGoBackwards(t *testing.T) {
	r := &epochReader{last: 200}
	at := func(e int) evalReply { return evalReply{Stream: &streamReply{Epoch: e}} }
	if err := r.check(at(300), 100); err != nil {
		t.Fatal(err)
	}
	if err := r.check(at(300), 100); err != nil {
		t.Fatalf("an unchanged epoch was refused: %v", err)
	}
	if err := r.check(at(200), 100); err == nil {
		t.Fatal("an older epoch passed")
	}
	if err := r.check(at(350), 100); err == nil {
		t.Fatal("an epoch inside a batch passed")
	}
}

func TestFollowerRetriesWhileReplayingOnly(t *testing.T) {
	st := newStream(1)
	ref, err := evalReference(evalBody{Trace: st.prefix(5), Policy: "best-observed", Options: evalOptions{Clip: readClip}})
	if err != nil {
		t.Fatal(err)
	}
	var calls, status atomic.Int64
	status.Store(http.StatusServiceUnavailable)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		if calls.Add(1) <= 2 {
			w.WriteHeader(int(status.Load()))
			return
		}
		r := answer(ref)
		r.Stream = &streamReply{Epoch: 500}
		_ = json.NewEncoder(w).Encode(r)
	}))
	defer srv.Close()
	f := &follower{e: &env{client: srv.Client()}, records: 500, ref: ref}
	f.base.Store(&srv.URL)
	due := time.Now()
	if err := f.read(context.Background(), due); err != nil {
		t.Fatalf("read through two 503s: %v", err)
	}
	if f.okBase != srv.URL || !f.okDue.Equal(due) || calls.Load() != 3 {
		t.Fatalf("after the answer: base %q, due %v, %d calls", f.okBase, f.okDue, calls.Load())
	}
	calls.Store(0)
	status.Store(http.StatusBadRequest)
	if err := f.read(context.Background(), due); err == nil {
		t.Fatal("a 400 was retried into a pass")
	}
}
