package main

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"drnet/internal/obs"
	"drnet/internal/traceio"
	"drnet/internal/walog"
)

// wideBody is an eval_wide-shaped /evaluate body: 8,000 records over
// 1,000 three-feature contexts on a quarter-step grid, decisions a, b
// and c logged at propensities 0.7, 0.15 and 0.15, best-observed, no
// bootstrap.
func wideBody(tb testing.TB) []byte {
	tb.Helper()
	rng := rand.New(rand.NewSource(1))
	const contexts = 1000
	favoured := make([]int, contexts)
	for c := range favoured {
		favoured[c] = rng.Intn(3)
	}
	recs := make([]traceio.FlatRecord, 8000)
	for i := range recs {
		c := i
		if i >= contexts {
			c = rng.Intn(contexts)
		}
		d, prop := favoured[c], 0.7
		if u := rng.Float64(); u >= 0.7 {
			d, prop = (d+1+min(int((u-0.7)/0.15), 1))%3, 0.15
		}
		recs[i] = traceio.FlatRecord{
			Features:   []float64{float64(c%10) / 4, float64(c/10%10) / 4, float64(c/100%10) / 4},
			Decision:   []string{"a", "b", "c"}[d],
			Reward:     rng.Float64(),
			Propensity: prop,
		}
	}
	body, err := json.Marshal(evalRequest{Trace: recs, Policy: "best-observed"})
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// BenchmarkEvaluateWide times one eval_wide-shaped /evaluate request
// through the server's routes, middleware and wide event included.
func BenchmarkEvaluateWide(b *testing.B) {
	body := wideBody(b)
	h := newTestServer(b, nil).routes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/evaluate", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
}

// BenchmarkIngestAck times one durable /ingest ack through the server's
// routes: a 100-record batch over 1,000 three-feature contexts the
// stream already holds, with -fsync never, so the WAL write is timed
// but the disk's sync is not.
func BenchmarkIngestAck(b *testing.B) {
	s := newTestServer(b, func(c *config) { c.walDir, c.fsync = b.TempDir(), "never" })
	h := s.routes()
	for off := 0; off < 1000; off += 100 {
		serveOK(b, h, "/ingest", streamBatch(b, off, off+100))
	}
	bodies := make([][]byte, 10)
	for i := range bodies {
		off := 1000 + 100*i
		bodies[i] = streamBatch(b, off, off+100)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serveOK(b, h, "/ingest", bodies[i%len(bodies)])
	}
}

// BenchmarkReplay times one recovery of a 200,000-record WAL, 2,000
// frames of 100 records over 1,000 three-feature contexts: a server
// opening the WAL with -fsync never, then replaying it into its view.
func BenchmarkReplay(b *testing.B) {
	const frames, perFrame = 2000, 100
	dir := b.TempDir()
	l, _, err := walog.Open(walog.Options{Dir: dir, Fsync: walog.FsyncNever})
	if err != nil {
		b.Fatal(err)
	}
	recs := make([]traceio.FlatRecord, perFrame)
	for f := 0; f < frames; f++ {
		for i := range recs {
			n := f*perFrame + i
			recs[i] = streamRecord(n, n%1000)
		}
		if _, err := l.Append(traceio.EncodeBatch(nil, recs)); err != nil {
			b.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		b.Fatal(err)
	}
	cfg, err := parseFlags([]string{"-wal-dir", dir, "-fsync", "never"})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := newServer(cfg, obs.NewRegistry())
		if err != nil {
			b.Fatal(err)
		}
		s.log = obs.NewLogger(io.Discard, slog.LevelInfo)
		s.stream.replay()
		b.StopTimer()
		if n, err := s.stream.builder.Len(), s.stream.replayErr; n != frames*perFrame || err != nil {
			b.Fatalf("replayed %d records (%v), want %d", n, err, frames*perFrame)
		}
		s.close()
		b.StartTimer()
	}
}
