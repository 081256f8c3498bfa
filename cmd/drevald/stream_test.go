package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"drnet/internal/benchkit"
	"drnet/internal/core"
	"drnet/internal/resilience"
	"drnet/internal/traceio"
	"drnet/internal/walog"
)

// ingestBatch POSTs one batch and decodes the ack.
func ingestBatch(t *testing.T, srv *httptest.Server, records []traceio.FlatRecord) ingestResponse {
	t.Helper()
	return ingestBody(t, srv, marshal(t, ingestRequest{Records: records}))
}

// ingestBody POSTs one raw /ingest body and decodes the ack.
func ingestBody(t *testing.T, srv *httptest.Server, body []byte) ingestResponse {
	t.Helper()
	resp := postRawWithID(t, srv, "/ingest", "", body)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var buf bytes.Buffer
		_, _ = buf.ReadFrom(resp.Body)
		t.Fatalf("ingest status %d: %s", resp.StatusCode, buf.String())
	}
	var ack ingestResponse
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		t.Fatal(err)
	}
	return ack
}

// streamEvaluate POSTs an empty-trace /evaluate (the aggregate-served
// path) and decodes the response.
func streamEvaluate(t *testing.T, srv *httptest.Server, policy string, opts evalOptions) evalResponse {
	t.Helper()
	resp := post(t, srv, "/evaluate", evalRequest{Policy: policy, Options: opts})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var buf bytes.Buffer
		_, _ = buf.ReadFrom(resp.Body)
		t.Fatalf("stream evaluate status %d: %s", resp.StatusCode, buf.String())
	}
	var out evalResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestStreamEvaluateMatchesBatch is the end-to-end equivalence check:
// records ingested in batches and evaluated from aggregates must
// produce the same estimates as the same records POSTed inline —
// bit-identical dm, ips, dr and diagnostics blocks, with and without
// selfNormalize (the core suite's guarantee, carried through the full
// HTTP surface).
func TestStreamEvaluateMatchesBatch(t *testing.T) {
	t.Parallel()
	_, srv := startTest(t, withWAL(t))

	records := testTraceJSON(t, false)
	var epoch int
	for i := 0; i < len(records); i += 100 {
		ack := ingestBatch(t, srv, records[i:i+100])
		if ack.Acked != 100 || !ack.Durable {
			t.Fatalf("ack %+v, want 100 durable records", ack)
		}
		epoch = ack.Epoch
	}
	if epoch != len(records) {
		t.Fatalf("final epoch %d, want %d", epoch, len(records))
	}

	for _, policy := range []string{"constant:c", "best-observed"} {
		for _, selfNorm := range []bool{false, true} {
			opts := evalOptions{Clip: 5, SelfNormalize: selfNorm}
			streamed := streamEvaluate(t, srv, policy, opts)
			resp := post(t, srv, "/evaluate", evalRequest{Trace: records, Policy: policy, Options: opts})
			var batch evalResponse
			if err := json.NewDecoder(resp.Body).Decode(&batch); err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()

			if streamed.Stream == nil {
				t.Fatal("streamed response missing the stream metadata block")
			}
			if streamed.Stream.Epoch != len(records) || streamed.Stream.StalenessRecords != 0 {
				t.Fatalf("stream meta %+v, want epoch=%d staleness=0", streamed.Stream, len(records))
			}
			if batch.Stream != nil {
				t.Fatal("batch response unexpectedly carries stream metadata")
			}
			// The policy and the model register at the full epoch, so
			// every block is the batch fit's on the same records, bit
			// for bit.
			if streamed.DM != batch.DM || streamed.IPS != batch.IPS || streamed.DR != batch.DR {
				t.Fatalf("%s selfNorm=%v: streamed dm/ips/dr %+v %+v %+v, batch %+v %+v %+v",
					policy, selfNorm, streamed.DM, streamed.IPS, streamed.DR, batch.DM, batch.IPS, batch.DR)
			}
			if streamed.Diagnostics != batch.Diagnostics {
				t.Fatalf("%s selfNorm=%v: diagnostics %+v != %+v", policy, selfNorm, streamed.Diagnostics, batch.Diagnostics)
			}
		}
	}

	// /diagnose from aggregates carries the same diagnostics + metadata.
	resp := post(t, srv, "/diagnose", evalRequest{Policy: "constant:c", Options: evalOptions{Clip: 5}})
	var diag diagnoseResponse
	if err := json.NewDecoder(resp.Body).Decode(&diag); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if diag.N != len(records) || diag.Stream == nil || diag.Stream.Epoch != len(records) {
		t.Fatalf("stream diagnose %+v / %+v", diag.diagnosticsJSON, diag.Stream)
	}
}

// mixedFeaturesRecords mixes records with "features": [] and records
// that omit features. Both are the one featureless context on every
// path: batch decode, live ingest and WAL replay, which decodes both
// as nil.
const mixedFeaturesRecords = `[
	{"features":[],"decision":"a","reward":1,"propensity":0.5},
	{"decision":"b","reward":0,"propensity":0.5},
	{"features":[],"decision":"b","reward":0.2,"propensity":0.5},
	{"decision":"a","reward":0.6,"propensity":0.5},
	{"features":[],"decision":"b","reward":0.9,"propensity":0.5}]`

// TestStreamRestartByteIdentical pins crash-replay equivalence through
// the HTTP surface: close the engine, reopen the same WAL dir, replay,
// and the streamed /evaluate body must be byte-identical. With several
// writers, batches decode at once against a builder the others are
// still growing, and replay must still rebuild the acked view.
func TestStreamRestartByteIdentical(t *testing.T) {
	t.Parallel()
	records := testTraceJSON(t, false)
	var batches, spread [][]byte
	for i := 0; i < len(records); i += 50 {
		batches = append(batches, marshal(t, ingestRequest{Records: records[i : i+50]}))
	}
	// New contexts keep arriving: 61 per feature value, so most batches
	// hold both contexts the stream knows and first sightings.
	for i := 0; i < len(records); i += 20 {
		recs := append([]traceio.FlatRecord(nil), records[i:i+20]...)
		for j := range recs {
			recs[j].Features = []float64{float64((i + j) % 61), recs[j].Features[0]}
		}
		spread = append(spread, marshal(t, ingestRequest{Records: recs}))
	}
	mixed := []byte(`{"records":` + mixedFeaturesRecords + `}`)
	for _, c := range []struct {
		name    string
		batches [][]byte
		records int
		writers int
	}{
		{"trace", batches, len(records), 1},
		{"mixed empty and omitted features", [][]byte{mixed}, 5, 1},
		{"concurrent writers", spread, len(records), 4},
	} {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			want := streamedAcrossRestart(t, dir, c.batches, c.writers, func(eng *streamEngine) {
				if got := eng.builder.Len(); got != c.records {
					t.Fatalf("replayed %d records, want %d", got, c.records)
				}
				if len(c.batches) > 1 && eng.wal.Segments() < 2 {
					t.Fatalf("expected multiple segments at SegmentBytes=4096, got %d", eng.wal.Segments())
				}
			})
			if !bytes.Equal(want[1], want[0]) {
				t.Fatalf("streamed response differs after restart:\n%s\nvs\n%s", want[1], want[0])
			}
		})
	}
}

// streamedAcrossRestart ingests batches into a fresh server over dir,
// from writers goroutines that each send every writers-th batch in
// order, reads a streamed best-observed /evaluate, restarts the server
// on the same WAL and reads again. check inspects the replayed engine.
func streamedAcrossRestart(t *testing.T, dir string, batches [][]byte, writers int, check func(*streamEngine)) [2][]byte {
	t.Helper()
	read := func(srv *httptest.Server) []byte {
		resp := post(t, srv, "/evaluate", evalRequest{Policy: "best-observed", Options: evalOptions{Clip: 10}})
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
	var out [2][]byte
	for run := range out {
		s := newTestServer(t, func(c *config) { c.walDir, c.segmentBytes = dir, 4096 })
		srv := httptest.NewServer(s.routes())
		if run == 0 {
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := w; i < len(batches); i += writers {
						resp, err := http.Post(srv.URL+"/ingest", "application/json", bytes.NewReader(batches[i]))
						if err != nil {
							t.Error(err)
							return
						}
						resp.Body.Close()
						if resp.StatusCode != http.StatusOK {
							t.Errorf("batch %d: ingest status %d", i, resp.StatusCode)
							return
						}
					}
				}(w)
			}
			wg.Wait()
		} else {
			check(s.stream)
		}
		out[run] = read(srv)
		srv.Close()
		s.close()
	}
	return out
}

// TestStreamMatchesBatchEmptyFeatures: the same records with empty and
// omitted features give the batch /evaluate's estimates when streamed,
// before and after a restart.
func TestStreamMatchesBatchEmptyFeatures(t *testing.T) {
	t.Parallel()
	_, srv := startTest(t, nil)
	resp := postRawWithID(t, srv, "/evaluate", "", []byte(`{"trace":`+mixedFeaturesRecords+`,"policy":"best-observed","options":{"clip":10}}`))
	var batch evalResponse
	if err := json.NewDecoder(resp.Body).Decode(&batch); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d: %v", resp.StatusCode, err)
	}
	resp.Body.Close()
	streamed := streamedAcrossRestart(t, t.TempDir(), [][]byte{[]byte(`{"records":` + mixedFeaturesRecords + `}`)}, 1, func(*streamEngine) {})
	for run, body := range streamed {
		var got evalResponse
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatal(err)
		}
		if got.DM != batch.DM || got.IPS != batch.IPS || got.DR != batch.DR || got.Diagnostics != batch.Diagnostics {
			t.Fatalf("run %d: streamed %+v %+v %+v, batch %+v %+v %+v", run, got.DM, got.IPS, got.DR, batch.DM, batch.IPS, batch.DR)
		}
	}
}

// TestStreamStalenessDegrades: with -max-model-age set, a fingerprint
// registered early degrades once enough records arrive, carrying the
// stale_aggregates reason and an O(1) SNIPS fallback; refreshModel
// refits and clears it.
func TestStreamStalenessDegrades(t *testing.T) {
	t.Parallel()
	_, srv := startTest(t, func(c *config) {
		c.walDir = t.TempDir()
		c.maxModelAge = 100
		c.thresholds = resilience.Thresholds{} // isolate the staleness reason
	})

	records := testTraceJSON(t, false)
	ingestBatch(t, srv, records[:100])
	fresh := streamEvaluate(t, srv, "constant:a", evalOptions{})
	if fresh.Degraded {
		t.Fatalf("fresh registration degraded: %+v", fresh.DegradedReasons)
	}
	if fresh.Stream.ModelEpoch != 100 {
		t.Fatalf("modelEpoch %d, want 100", fresh.Stream.ModelEpoch)
	}

	ingestBatch(t, srv, records[100:250])
	ingestBatch(t, srv, records[250:400])
	stale := streamEvaluate(t, srv, "constant:a", evalOptions{})
	if stale.Stream.StalenessRecords != 300 || stale.Stream.Epoch != 400 {
		t.Fatalf("stream meta %+v, want staleness=300 epoch=400", stale.Stream)
	}
	if !stale.Degraded || len(stale.DegradedReasons) != 1 ||
		stale.DegradedReasons[0].Code != resilience.ReasonStaleAggs {
		t.Fatalf("want stale_aggregates degradation, got %+v", stale.DegradedReasons)
	}
	if stale.Fallback == nil || stale.Fallback.Estimator != "snips-stream" || stale.Fallback.Estimate.N != 400 {
		t.Fatalf("fallback %+v, want snips-stream over 400 records", stale.Fallback)
	}
	// The stale aggregates still cover every record.
	if stale.DM.N != 400 || stale.IPS.N != 400 {
		t.Fatalf("stale estimates dropped records: DM.N=%d IPS.N=%d", stale.DM.N, stale.IPS.N)
	}

	refreshed := streamEvaluate(t, srv, "constant:a", evalOptions{RefreshModel: true})
	if refreshed.Degraded || refreshed.Stream.StalenessRecords != 0 || refreshed.Stream.ModelEpoch != 400 {
		t.Fatalf("refresh did not clear staleness: %+v (degraded=%v)", refreshed.Stream, refreshed.Degraded)
	}
}

// TestIngestErrorSurface walks the /ingest status ladder: 404 disabled,
// 400 malformed/empty/trailing data, 413 oversized, 422 invalid
// records, 429 shed with Retry-After, 503 while replaying.
func TestIngestErrorSurface(t *testing.T) {
	t.Parallel()
	records := testTraceJSON(t, false)

	t.Run("disabled 404", func(t *testing.T) {
		_, srv := startTest(t, nil)
		resp := post(t, srv, "/ingest", ingestRequest{Records: records[:10]})
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("status %d, want 404", resp.StatusCode)
		}
	})

	s, srv := startTest(t, withWAL(t))

	t.Run("empty batch 400", func(t *testing.T) {
		resp := post(t, srv, "/ingest", ingestRequest{})
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status %d, want 400", resp.StatusCode)
		}
	})

	t.Run("malformed 400", func(t *testing.T) {
		resp, err := http.Post(srv.URL+"/ingest", "application/json", strings.NewReader("{nope"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status %d, want 400", resp.StatusCode)
		}
	})

	t.Run("two batches in one body 400", func(t *testing.T) {
		batch := string(marshal(t, ingestRequest{Records: records[:10]}))
		code, body := postRaw(t, srv, "/ingest", batch+batch)
		if code != http.StatusBadRequest || !strings.Contains(body, "invalid request body") {
			t.Fatalf("status %d %s, want 400 invalid request body", code, body)
		}
		// Rejected before the WAL append: the epoch did not move.
		if s.stream.wal.Seq() != 0 || s.stream.builder.Len() != 0 {
			t.Fatalf("rejected body left state: seq=%d len=%d", s.stream.wal.Seq(), s.stream.builder.Len())
		}
	})

	t.Run("oversized 413", func(t *testing.T) {
		_, srv := startTest(t, func(c *config) { c.walDir, c.ingestMaxBytes = t.TempDir(), 64 })
		resp := post(t, srv, "/ingest", ingestRequest{Records: records[:10]})
		var buf bytes.Buffer
		_, _ = buf.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("status %d, want 413 (%s)", resp.StatusCode, buf.String())
		}
	})

	t.Run("invalid record 422", func(t *testing.T) {
		bad := []traceio.FlatRecord{{Decision: "a", Reward: 1, Propensity: 0}}
		resp := post(t, srv, "/ingest", ingestRequest{Records: bad})
		var buf bytes.Buffer
		_, _ = buf.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Fatalf("status %d, want 422", resp.StatusCode)
		}
		if !strings.Contains(buf.String(), "record 0") {
			t.Fatalf("error not record-addressed: %s", buf.String())
		}
		// Nothing invalid reached the WAL or the view.
		if s.stream.wal.Seq() != 0 || s.stream.builder.Len() != 0 {
			t.Fatalf("invalid batch left state: seq=%d len=%d", s.stream.wal.Seq(), s.stream.builder.Len())
		}
	})

	t.Run("shed 429 with Retry-After", func(t *testing.T) {
		s, srv := startTest(t, func(c *config) {
			c.walDir, c.ingestMaxConcurrent, c.ingestMaxQueue = t.TempDir(), 1, 0
		})
		release, _, err := s.ingestLimiter.Acquire(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		defer release()
		resp := post(t, srv, "/ingest", ingestRequest{Records: records[:10]})
		resp.Body.Close()
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("status %d, want 429", resp.StatusCode)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Fatal("429 without Retry-After")
		}
	})

	t.Run("replaying 503", func(t *testing.T) {
		s.stream.replaying.Store(true)
		defer s.stream.replaying.Store(false)
		for _, path := range []string{"/ingest", "/evaluate", "/diagnose"} {
			body := any(ingestRequest{Records: records[:10]})
			if path != "/ingest" {
				body = evalRequest{Policy: "constant:a"}
			}
			resp := post(t, srv, path, body)
			var out streamUnavailableJSON
			err := json.NewDecoder(resp.Body).Decode(&out)
			resp.Body.Close()
			if resp.StatusCode != http.StatusServiceUnavailable {
				t.Fatalf("%s: status %d, want 503", path, resp.StatusCode)
			}
			if err != nil || !out.Replaying {
				t.Fatalf("%s: body %+v, want replaying:true", path, out)
			}
			if resp.Header.Get("Retry-After") == "" {
				t.Fatalf("%s: 503 without Retry-After", path)
			}
		}
	})

	t.Run("empty stream evaluate 422", func(t *testing.T) {
		resp := post(t, srv, "/evaluate", evalRequest{Policy: "constant:a"})
		var buf bytes.Buffer
		_, _ = buf.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Fatalf("status %d, want 422 (%s)", resp.StatusCode, buf.String())
		}
		if !strings.Contains(buf.String(), "stream is empty") {
			t.Fatalf("unhelpful error: %s", buf.String())
		}
	})

	t.Run("bootstrap rejected 400", func(t *testing.T) {
		ingestBatch(t, srv, records[:50])
		resp := post(t, srv, "/evaluate", evalRequest{Policy: "constant:a", Options: evalOptions{Bootstrap: 10}})
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status %d, want 400", resp.StatusCode)
		}
	})
}

// TestChaosIngestWALFault: an injected fsync failure refuses the ack
// with 503 (the batch is NOT durable and NOT folded), the error counter
// ticks, and after the fault clears the same batch ingests cleanly —
// the retry contract a durable queue owes its producers.
func TestChaosIngestWALFault(t *testing.T) {
	s, srv := startTest(t, withWAL(t))
	records := testTraceJSON(t, false)

	errsBefore := s.m.walAppendErrors.Value()
	resilience.Activate(resilience.NewFaultPlan(23).
		Add(resilience.PointWALSync, resilience.FaultSpec{ErrProb: 1}))
	resp := post(t, srv, "/ingest", ingestRequest{Records: records[:50]})
	resilience.Deactivate()
	var buf bytes.Buffer
	_, _ = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503 (%s)", resp.StatusCode, buf.String())
	}
	if s.m.walAppendErrors.Value() != errsBefore+1 {
		t.Fatal("wal append error counter did not tick")
	}
	if s.stream.builder.Len() != 0 {
		t.Fatalf("un-durable batch folded into the view: %d records", s.stream.builder.Len())
	}

	// Retry after the fault clears: clean ack, state consistent.
	ack := ingestBatch(t, srv, records[:50])
	if ack.Acked != 50 || ack.Epoch != 50 || ack.Seq != 0 {
		t.Fatalf("retry ack %+v, want 50 records at seq 0", ack)
	}
}

// TestStreamHealthzWALBlock: /healthz surfaces the WAL state (epoch,
// fsync policy, replay progress) once streaming is enabled.
func TestStreamHealthzWALBlock(t *testing.T) {
	t.Parallel()
	_, srv := startTest(t, withWAL(t))
	ingestBatch(t, srv, testTraceJSON(t, false)[:100])

	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out healthJSON
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.WAL == nil {
		t.Fatal("healthz missing wal block")
	}
	if !out.WAL.Enabled || out.WAL.Replaying || out.WAL.Epoch != 100 ||
		out.WAL.Frames != 1 || out.WAL.Fsync != "always" {
		t.Fatalf("wal block %+v", out.WAL)
	}
}

// TestStreamBiasRefresh: with BiasRefresh set, ingest republishes the
// observatory report over the streamed view, stamped with the epoch.
// A refresh asks the registered policy about contexts off the engine
// lock while later batches intern contexts that policy never saw.
func TestStreamBiasRefresh(t *testing.T) {
	t.Parallel()
	records := testTraceJSON(t, false)
	for _, policy := range []string{"constant:a", "best-observed"} {
		t.Run(policy, func(t *testing.T) {
			t.Parallel()
			s, srv := startTest(t, func(c *config) { c.walDir, c.biasRefresh = t.TempDir(), 100 })
			ingestBatch(t, srv, records[:150])
			streamEvaluate(t, srv, policy, evalOptions{}) // register a policy
			for i := 150; i < len(records); i += 50 {
				recs := append([]traceio.FlatRecord(nil), records[i:i+50]...)
				for j := range recs {
					recs[j].Features = []float64{recs[j].Features[0], float64(i + j)}
				}
				ingestBatch(t, srv, recs)
			}

			deadline := time.Now().Add(5 * time.Second)
			for {
				if st := s.lastBias.Load(); st != nil {
					if !strings.HasPrefix(st.requestID, "ingest@epoch=") {
						t.Fatalf("bias report stamped %q, want ingest@epoch=...", st.requestID)
					}
					if st.report.Grade == "" {
						t.Fatal("empty bias grade")
					}
					break
				}
				if time.Now().After(deadline) {
					t.Fatal("bias refresh never published")
				}
				time.Sleep(5 * time.Millisecond)
			}
		})
	}
}

// TestStreamSegmentRotationManifest: small segments force rotation
// mid-stream; the manifest matches the scan on reopen and recovery
// reports every frame.
func TestStreamSegmentRotationManifest(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	s := newTestServer(t, func(c *config) { c.walDir, c.segmentBytes = dir, 2048 })
	srv := httptest.NewServer(s.routes())
	records := testTraceJSON(t, false)
	for i := 0; i < 300; i += 20 {
		ingestBatch(t, srv, records[i:i+20])
	}
	if s.stream.wal.Segments() < 3 {
		t.Fatalf("no rotation at 2 KiB segments: %d segment(s)", s.stream.wal.Segments())
	}
	srv.Close()
	s.close()

	l, rec, err := walog.Open(walog.Options{Dir: dir, SegmentBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if !rec.ManifestOK {
		t.Fatal("manifest disagreed with the scan after a clean shutdown")
	}
	if rec.Frames != 15 || rec.TruncatedBytes != 0 {
		t.Fatalf("recovery %+v, want 15 clean frames", rec)
	}
}

// TestIngestLegEvalFlatness ingests a growing stream into the real
// engine and checks the O(1) contract end to end: streamed /evaluate
// latency at a 10x-larger epoch stays within a small factor of the
// first checkpoint (an O(n) evaluator would scale ~10x). The bound is
// deliberately loose — it is a complexity tripwire, not a latency SLO.
func TestIngestLegEvalFlatness(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("latency measurement skipped in -short mode")
	}
	_, srv := startTest(t, func(c *config) { c.walDir, c.fsync = t.TempDir(), "never" })

	const records, batch, samples = 5000, 250, 40
	all := benchkit.SyntheticTrace(records, 7)
	// evalP50 is the median streamed /evaluate latency, in ms, at the
	// current epoch.
	evalP50 := func() float64 {
		lat := make([]float64, samples)
		for i := range lat {
			t0 := time.Now()
			streamEvaluate(t, srv, "best-observed", evalOptions{Clip: 10})
			lat[i] = time.Since(t0).Seconds()
		}
		return benchkit.Percentile(lat, 0.5) * 1000
	}
	// Probe at 10 evenly spaced epochs, so first to last spans 10x.
	var epochs []int
	var p50 []float64
	for off := 0; off < records; off += batch {
		ack := ingestBatch(t, srv, all[off:off+batch])
		if ack.Epoch%(records/10) == 0 {
			epochs = append(epochs, ack.Epoch)
			p50 = append(p50, evalP50())
		}
	}
	last := len(epochs) - 1
	if epochs[last] != 10*epochs[0] {
		t.Fatalf("checkpoints do not span 10x: %v", epochs)
	}
	if ratio := p50[last] / p50[0]; ratio > 8 {
		t.Fatalf("streamed /evaluate latency grew %.1fx over a 10x stream (p50 %.3fms -> %.3fms): evaluation is no longer O(1)",
			ratio, p50[0], p50[last])
	}
	t.Logf("10x growth: eval p50 %.3fms -> %.3fms (%.2fx)", p50[0], p50[last], p50[last]/p50[0])
}

// TestIngestAckAllocsIndependentOfBatchSize: over contexts the stream
// already holds, an ack allocates within a small constant whatever its
// size. Each record's feature text is a key of the stream's builder,
// so it takes its context's code without parsing or keying, in a slot
// of the staged run whose growth is the only cost per record, and the
// snapshot each batch folds no longer clones the context index.
func TestIngestAckAllocsIndependentOfBatchSize(t *testing.T) {
	s := newTestServer(t, func(c *config) { c.walDir, c.fsync = t.TempDir(), "never" })
	h := s.routes()
	records := testTraceJSONSized(t, false, 1000)
	ack := func(body []byte) { serveOK(t, h, "/ingest", body) }
	ack(marshal(t, ingestRequest{Records: records}))
	allocs := func(n int) float64 {
		body := marshal(t, ingestRequest{Records: records[:n]})
		return testing.AllocsPerRun(20, func() { ack(body) })
	}
	small, large := allocs(100), allocs(1000)
	t.Logf("allocations per ack: %.0f for 100 records, %.0f for 1000", small, large)
	if raceEnabled {
		t.Skip("the ack is encoded through encoding/json, whose encoder-state sync.Pool the race detector drains at random")
	}
	if large > small+40 {
		t.Fatalf("a 1000-record ack allocates %.0f times, a 100-record ack %.0f: more than 40 apart", large, small)
	}
}

// serveOK serves one POST to path on h in process and fails the test
// unless it answers 200.
func serveOK(t testing.TB, h http.Handler, path string, body []byte) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("%s status %d: %s", path, rec.Code, rec.Body)
	}
}

// streamRecord is record i of a synthetic stream that logs context c,
// one of 1,000 three-feature vectors, under a uniform logger over the
// decisions a, b and c; the reward depends on the context, the
// decision and i.
func streamRecord(i, c int) traceio.FlatRecord {
	d := (c + i/7) % 3
	return traceio.FlatRecord{
		Features:   []float64{float64(c % 10), float64(c / 10 % 10), float64(c / 100)},
		Decision:   "abc"[d : d+1],
		Reward:     float64(c%7)/7 + float64(d)/4 + float64(i%13)/100,
		Propensity: 1.0 / 3,
	}
}

// streamBatch is records [from, to) of the stream in which record i
// logs context i mod 1,000, as one /ingest body.
func streamBatch(t testing.TB, from, to int) []byte {
	t.Helper()
	recs := make([]traceio.FlatRecord, 0, to-from)
	for i := from; i < to; i++ {
		recs = append(recs, streamRecord(i, i%1000))
	}
	return marshal(t, ingestRequest{Records: recs})
}

// TestStreamRegistrationAllocsIndependentOfLength: registering a
// streamed policy allocates within a small constant whatever the
// stream's length. The policy, the reward model and the catch-up fold
// all read one snapshot of the view by context code, so no record is
// copied or keyed again. refreshModel makes every read register the
// policy afresh.
func TestStreamRegistrationAllocsIndependentOfLength(t *testing.T) {
	registerBody := []byte(`{"policy":"best-observed","options":{"clip":10,"refreshModel":true}}`)
	allocs := func(n int) float64 {
		s := newTestServer(t, func(c *config) { c.walDir, c.fsync = t.TempDir(), "never" })
		h := s.routes()
		for off := 0; off < n; off += 100 {
			serveOK(t, h, "/ingest", streamBatch(t, off, off+100))
		}
		return testing.AllocsPerRun(5, func() { serveOK(t, h, "/evaluate", registerBody) })
	}
	small, large := allocs(10_000), allocs(100_000)
	t.Logf("allocations per registration: %.0f over 10,000 records, %.0f over 100,000", small, large)
	if raceEnabled {
		t.Skip("the response is encoded through encoding/json, whose encoder-state sync.Pool the race detector drains at random")
	}
	if large > small+64 {
		t.Fatalf("registering over 100,000 records allocates %.0f times, over 10,000 %.0f: more than 64 apart", large, small)
	}
}

// TestStreamHoldsHistoryOnce: the stream's only history is the view's
// columns, 24 bytes per record (reward, propensity and two codes). The
// live heap a server gains over 200,000 ingested records, with one
// registered reader, stays within twice that, which leaves room for
// the columns' growth slack and the server's fixed state but not for
// a second copy of the records.
func TestStreamHoldsHistoryOnce(t *testing.T) {
	const records, maxPerRecord = 200_000, 48.0
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	s := newTestServer(t, func(c *config) { c.walDir, c.fsync = t.TempDir(), "never" })
	h := s.routes()
	for off := 0; off < records; off += 100 {
		serveOK(t, h, "/ingest", streamBatch(t, off, off+100))
		if off == 0 {
			serveOK(t, h, "/evaluate", []byte(`{"policy":"best-observed","options":{"clip":10}}`))
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(s)
	perRecord := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / records
	t.Logf("live heap grew %.1f B per ingested record", perRecord)
	if perRecord > maxPerRecord {
		t.Fatalf("live heap grew %.1f B per ingested record, want at most %.0f: the stream holds more than the view's columns", perRecord, maxPerRecord)
	}
}

// TestStreamRegisteredPolicyKeepsItsPrefix: best-observed registered
// halfway through a stream keeps answering from the prefix it was fit
// on. Contexts first seen after registration get the prefix's global
// fallback, and old contexts keep the prefix's choice and model, so a
// plain streamed read equals, bit for bit, the policy and the reward
// model fit on the prefix's own view, folded over every record.
func TestStreamRegisteredPolicyKeepsItsPrefix(t *testing.T) {
	t.Parallel()
	_, srv := startTest(t, withWAL(t))
	// The prefix logs contexts 0–499 under decisions a, b and c; the
	// rest brings contexts 500–999 and decision d among more records of
	// the old ones.
	const half, total = 2000, 4000
	all := make([]traceio.FlatRecord, total)
	for i := range all {
		c := i % 500
		if i >= half {
			c = i % 1000
		}
		all[i] = streamRecord(i, c)
		if i >= half && i%10 == 3 {
			all[i].Decision = "d"
		}
	}
	opts := evalOptions{Clip: 10}
	for off := 0; off < total; off += 100 {
		ingestBatch(t, srv, all[off:off+100])
		if off+100 == half {
			if reg := streamEvaluate(t, srv, "best-observed", opts); reg.Stream.ModelEpoch != half {
				t.Fatalf("registered at model epoch %d, want %d", reg.Stream.ModelEpoch, half)
			}
		}
	}

	prefix := traceio.ToCore(traceio.FlatTrace{Records: all[:half]})
	policy, err := traceio.ParsePolicy("best-observed", prefix)
	if err != nil {
		t.Fatal(err)
	}
	prefixView, err := core.NewTraceViewKeyed(prefix, traceio.FlatContext.Key)
	if err != nil {
		t.Fatal(err)
	}
	view, err := core.NewTraceViewKeyed(traceio.ToCore(traceio.FlatTrace{Records: all}), traceio.FlatContext.Key)
	if err != nil {
		t.Fatal(err)
	}
	eval := core.NewStreamEval(policy, core.FitTableView(prefixView), core.StreamOptions{Clip: opts.Clip})
	if err := eval.Apply(view, 0); err != nil {
		t.Fatal(err)
	}
	est, err := eval.Estimates()
	if err != nil {
		t.Fatal(err)
	}
	for _, selfNorm := range []bool{false, true} {
		opts.SelfNormalize = selfNorm
		got := streamEvaluate(t, srv, "best-observed", opts)
		want := estimatesResponse(est, selfNorm)
		if got.Stream.ModelEpoch != half || got.Stream.Epoch != total {
			t.Fatalf("stream meta %+v, want modelEpoch=%d epoch=%d", got.Stream, half, total)
		}
		if got.DM != want.DM || got.IPS != want.IPS || got.DR != want.DR || got.Diagnostics != want.Diagnostics {
			t.Fatalf("selfNorm=%v: streamed %+v %+v %+v %+v, reference %+v %+v %+v %+v", selfNorm,
				got.DM, got.IPS, got.DR, got.Diagnostics, want.DM, want.IPS, want.DR, want.Diagnostics)
		}
	}
}
