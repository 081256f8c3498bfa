package wideevent

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fixedClock returns a frozen journal clock: every duration computed
// through it is exactly zero, which is what makes retained events
// byte-deterministic in these tests.
func fixedClock() func() time.Time {
	t := time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)
	return func() time.Time { return t }
}

// emitHealthy finishes one healthy 200 event through the full Builder
// path.
func emitHealthy(j *Journal, id string) {
	b := j.Begin(id, "/evaluate")
	b.SetPolicy("best-observed")
	b.SetRegime(0.8, 2.5, 0)
	b.Finish(200)
}

// TestConcurrentEmitters drives the journal from several goroutines at
// the worker widths the acceptance criteria name, while a reader draws
// timelines, and checks the accounting invariant emitted == recorded +
// sampledOut, the ring bound, and that every retained event is
// internally consistent.
func TestConcurrentEmitters(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			j := NewJournal(Options{Capacity: 64, SampleRate: 0.5, Seed: 7, Now: fixedClock()})
			const perWorker = 200
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < perWorker; i++ {
						if i%10 == 0 {
							b := j.Begin(fmt.Sprintf("w%d-%d", w, i), "/evaluate")
							end := b.Phase("estimate")
							b.FailPhase("estimate", "injected failure")
							end()
							b.Finish(500)
						} else {
							emitHealthy(j, fmt.Sprintf("w%d-%d", w, i))
						}
					}
				}(w)
			}
			done := make(chan struct{})
			go func() {
				defer close(done)
				for i := 0; i < 50; i++ {
					for _, tl := range j.slowest(5) {
						if tl.Root != "http/evaluate" {
							t.Errorf("torn timeline %+v", tl)
							return
						}
					}
				}
			}()
			wg.Wait()
			<-done
			st := j.Stats()
			total := uint64(workers * perWorker)
			if st.Emitted != total {
				t.Fatalf("emitted %d, want %d", st.Emitted, total)
			}
			if st.Recorded+st.SampledOut != total {
				t.Fatalf("recorded %d + sampledOut %d != emitted %d", st.Recorded, st.SampledOut, total)
			}
			if st.Buffered > st.Capacity {
				t.Fatalf("buffered %d exceeds capacity %d", st.Buffered, st.Capacity)
			}
			for _, ev := range j.Events() {
				if ev.Route != "/evaluate" || (ev.Status != 200 && ev.Status != 500) {
					t.Fatalf("inconsistent retained event: %+v", ev)
				}
			}
		})
	}
}

// TestEvictionBound checks the ring overwrites oldest-first and never
// grows past capacity.
func TestEvictionBound(t *testing.T) {
	j := NewJournal(Options{Capacity: 8, SampleRate: 1, Now: fixedClock()})
	for i := 0; i < 50; i++ {
		emitHealthy(j, fmt.Sprintf("r%02d", i))
	}
	evs := j.Events()
	if len(evs) != 8 {
		t.Fatalf("retained %d events, want capacity 8", len(evs))
	}
	// The survivors are exactly the last 8 commits, in order.
	for i, ev := range evs {
		if want := fmt.Sprintf("r%02d", 42+i); ev.RequestID != want {
			t.Fatalf("slot %d holds %q, want %q", i, ev.RequestID, want)
		}
	}
	if st := j.Stats(); st.Recorded != 50 || st.Buffered != 8 {
		t.Fatalf("stats = %+v, want recorded 50 buffered 8", st)
	}
}

// TestTailSamplingKeepsTail proves the retention bias: with a sample
// rate of zero, every error, degraded and slow event survives and
// every healthy event is sampled out.
func TestTailSamplingKeepsTail(t *testing.T) {
	j := NewJournal(Options{Capacity: 128, SampleRate: 0, SlowMs: 100, Seed: 1, Now: fixedClock()})
	const n = 30
	for i := 0; i < n; i++ {
		emitHealthy(j, fmt.Sprintf("healthy-%d", i)) // all sampled out

		b := j.Begin(fmt.Sprintf("err-%d", i), "/evaluate")
		b.SetError("boom")
		b.Finish(500)

		b = j.Begin(fmt.Sprintf("deg-%d", i), "/evaluate")
		b.SetDegraded([]string{"ess_ratio_below_floor"})
		b.Finish(200)

		b = j.Begin(fmt.Sprintf("bad-%d", i), "/ingest")
		b.Finish(422) // status >= 400 counts as error-class even with no message
	}
	evs := j.Events()
	if len(evs) != 3*n {
		t.Fatalf("retained %d events, want %d (every error/degraded/4xx)", len(evs), 3*n)
	}
	for _, ev := range evs {
		if ev.Error == "" && !ev.Degraded && ev.Status < 400 {
			t.Fatalf("healthy event leaked through zero sample rate: %+v", ev)
		}
	}
	if st := j.Stats(); st.SampledOut != n {
		t.Fatalf("sampledOut = %d, want %d healthy events", st.SampledOut, n)
	}
}

// TestSamplingDeterministic feeds two journals the identical sequence
// and requires identical retention decisions — the seeded-RNG
// property the byte-determinism acceptance criterion rests on.
func TestSamplingDeterministic(t *testing.T) {
	build := func() []string {
		j := NewJournal(Options{Capacity: 256, SampleRate: 0.3, Seed: 42, Now: fixedClock()})
		for i := 0; i < 200; i++ {
			emitHealthy(j, fmt.Sprintf("r%03d", i))
		}
		var ids []string
		for _, ev := range j.Events() {
			ids = append(ids, ev.RequestID)
		}
		return ids
	}
	a, b := build(), build()
	if len(a) == 0 || len(a) == 200 {
		t.Fatalf("sample rate 0.3 retained %d of 200 — expected a strict subset", len(a))
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("identical sequences retained different sets:\n%v\n%v", a, b)
	}
}

// TestSlowAlwaysKept checks the SlowMs criterion against a stepping
// clock (the only test that needs real-looking durations).
func TestSlowAlwaysKept(t *testing.T) {
	now := time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)
	var step time.Duration
	clock := func() time.Time { now = now.Add(step); return now }
	j := NewJournal(Options{Capacity: 16, SampleRate: 0, SlowMs: 50, Seed: 1, Now: clock})

	step = 0
	emitHealthy(j, "fast") // 0ms, sampled out

	step = 60 * time.Millisecond // one tick between Begin and Finish
	b := j.Begin("slow", "/evaluate")
	b.Finish(200)

	evs := j.Events()
	if len(evs) != 1 || evs[0].RequestID != "slow" {
		t.Fatalf("retained %v, want exactly the slow event", evs)
	}
	if evs[0].DurationMs < 50 {
		t.Fatalf("slow event duration %.1fms below the 50ms threshold that kept it", evs[0].DurationMs)
	}
}

// TestJSONLOrderAndFlush checks the sink exports retained events in
// commit order, one line each, and that SetSink(nil) flushes.
func TestJSONLOrderAndFlush(t *testing.T) {
	j := NewJournal(Options{Capacity: 32, SampleRate: 1, Now: fixedClock()})
	var mu sync.Mutex
	var buf bytes.Buffer
	j.SetSink(func(line []byte) {
		mu.Lock()
		defer mu.Unlock()
		buf.Write(line)
	})
	for i := 0; i < 10; i++ {
		emitHealthy(j, fmt.Sprintf("r%d", i))
	}
	j.SetSink(nil) // flush barrier

	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	if len(lines) != 10 {
		t.Fatalf("sink wrote %d lines, want 10", len(lines))
	}
	for i, line := range lines {
		var ev Event
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatalf("line %d is not valid JSON: %v", i, err)
		}
		if want := fmt.Sprintf("r%d", i); ev.RequestID != want || ev.Seq != uint64(i) {
			t.Fatalf("line %d carries %q seq %d, want %q seq %d", i, ev.RequestID, ev.Seq, want, i)
		}
	}
}

// TestObserverSeesSampledOut checks observers receive the unsampled
// stream — the property the SLO engine depends on.
func TestObserverSeesSampledOut(t *testing.T) {
	j := NewJournal(Options{Capacity: 8, SampleRate: 0, Now: fixedClock()})
	var mu sync.Mutex
	seen := 0
	j.Observe(func(*Event) { mu.Lock(); seen++; mu.Unlock() })
	for i := 0; i < 20; i++ {
		emitHealthy(j, fmt.Sprintf("r%d", i))
	}
	if seen != 20 {
		t.Fatalf("observer saw %d events, want all 20 (sampling must not hide events from observers)", seen)
	}
	if st := j.Stats(); st.Recorded != 0 {
		t.Fatalf("recorded %d, want 0 at sample rate 0", st.Recorded)
	}
}

// TestNilSafety: a nil journal yields a nil builder whose whole
// surface is a no-op — the disabled-journal contract.
func TestNilSafety(t *testing.T) {
	var j *Journal
	b := j.Begin("id", "/evaluate")
	end := b.Phase("diagnose")
	end()
	b.SetRegime(1, 1, 0)
	b.SetError("x")
	b.Finish(200)
	if got := j.Stats(); got != (Stats{}) {
		t.Fatalf("nil journal stats = %+v, want zero", got)
	}
	if j.Events() != nil {
		t.Fatal("nil journal must report no events")
	}
}

// TestFinishIdempotent: the one-event-per-request invariant — a
// second Finish is a no-op.
func TestFinishIdempotent(t *testing.T) {
	j := NewJournal(Options{Capacity: 8, SampleRate: 1, Now: fixedClock()})
	b := j.Begin("once", "/evaluate")
	b.Finish(200)
	b.Finish(500)
	if st := j.Stats(); st.Emitted != 1 {
		t.Fatalf("emitted %d events from one builder, want exactly 1", st.Emitted)
	}
	if evs := j.Events(); len(evs) != 1 || evs[0].Status != 200 {
		t.Fatalf("retained %v, want the first Finish only", evs)
	}
}

// TestFilterTable is the filter-language contract: each query against
// a fixed journal must select exactly the named requests.
func TestFilterTable(t *testing.T) {
	j := NewJournal(Options{Capacity: 32, SampleRate: 1, SlowMs: 0, Seed: 1, Now: fixedClock()})

	b := j.Begin("ok-1", "/evaluate")
	b.SetPolicy("best-observed")
	b.SetRegime(0.9, 1.5, 0)
	b.Finish(200)

	b = j.Begin("deg-1", "/evaluate")
	b.SetPolicy("constant:a")
	b.SetDegraded([]string{"ess_ratio_below_floor"})
	b.SetFallback("snips-clip")
	b.Finish(200)

	b = j.Begin("ing-1", "/ingest")
	b.SetWALAck(7, 400, "wal-000001.seg", true)
	b.Finish(200)

	b = j.Begin("err-1", "/evaluate")
	b.SetError("empty trace")
	b.Finish(422)

	b = j.Begin("diag-1", "/diagnose")
	b.Finish(200)

	cases := []struct {
		name  string
		query string
		want  []string
	}{
		{"all", "", []string{"ok-1", "deg-1", "ing-1", "err-1", "diag-1"}},
		{"route", "route=/ingest", []string{"ing-1"}},
		{"degradedTrue", "degraded=true", []string{"deg-1"}},
		{"degradedFalse", "degraded=false", []string{"ok-1", "ing-1", "err-1", "diag-1"}},
		{"status", "status=422", []string{"err-1"}},
		{"policy", "policy=constant:a", []string{"deg-1"}},
		{"fallback", "fallbackEstimator=snips-clip", []string{"deg-1"}},
		{"requestId", "requestId=ok-1", []string{"ok-1"}},
		{"extraKey", "clip=10", nil}, // a field no event has matches nothing
		{"conjunction", "route=/evaluate&degraded=true", []string{"deg-1"}},
		{"walSegment", "walSegment=wal-000001.seg", []string{"ing-1"}},
		{"noMatch", "route=/nope", nil},
		{"limit", "limit=2", []string{"err-1", "diag-1"}},
		{"minLatency", "minLatencyMs=5", nil}, // fixed clock: every duration is 0
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			q, err := url.ParseQuery(tc.query)
			if err != nil {
				t.Fatal(err)
			}
			f, err := ParseFilter(q)
			if err != nil {
				t.Fatal(err)
			}
			var got []string
			for _, ev := range j.Query(f) {
				got = append(got, ev.RequestID)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("query %q selected %v, want %v", tc.query, got, tc.want)
			}
		})
	}
}

// TestParseFilterErrors: malformed typed values are 400-class errors,
// not silent matches.
func TestParseFilterErrors(t *testing.T) {
	for _, bad := range []string{"limit=0", "limit=x", "minLatencyMs=-1", "minLatencyMs=abc", "degraded=maybe"} {
		q, err := url.ParseQuery(bad)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ParseFilter(q); err == nil {
			t.Fatalf("ParseFilter(%q) accepted a malformed value", bad)
		}
	}
	// With several bad typed values the error names the same one every
	// time: limit, then minLatencyMs, then degraded.
	q, err := url.ParseQuery("limit=x&minLatencyMs=y&degraded=z")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if _, err := ParseFilter(q); err == nil || !strings.HasPrefix(err.Error(), "limit must be") {
			t.Fatalf("parse %d of three bad values: %v, want the limit error", i, err)
		}
	}
	// limit above the cap clamps instead of erroring.
	q, _ = url.ParseQuery("limit=99999")
	f, err := ParseFilter(q)
	if err != nil || f.Limit != MaxQueryLimit {
		t.Fatalf("limit clamp: got (%v, %v), want limit %d", f.Limit, err, MaxQueryLimit)
	}
}

// TestHandler drives GET /debug/events end to end: shape, filters and
// the 400 path.
func TestHandler(t *testing.T) {
	j := NewJournal(Options{Capacity: 16, SampleRate: 1, Now: fixedClock()})
	emitHealthy(j, "a")
	b := j.Begin("b", "/evaluate")
	b.SetDegraded([]string{"max_weight_above_ceiling"})
	b.Finish(200)

	srv := httptest.NewServer(j.Handler())
	defer srv.Close()

	get := func(path string) (int, queryResponse) {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body queryResponse
		if resp.StatusCode == 200 {
			if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
				t.Fatal(err)
			}
		}
		return resp.StatusCode, body
	}

	code, body := get("/?degraded=true")
	if code != 200 || len(body.Events) != 1 || body.Events[0].RequestID != "b" {
		t.Fatalf("degraded=true: code %d events %v", code, body.Events)
	}
	if body.Stats.Recorded != 2 {
		t.Fatalf("stats.recorded = %d, want 2", body.Stats.Recorded)
	}
	if code, _ := get("/?limit=bogus"); code != 400 {
		t.Fatalf("malformed limit answered %d, want 400", code)
	}
	// Empty result must serialize as [], not null.
	resp, err := srv.Client().Get(srv.URL + "/?route=/none")
	if err != nil {
		t.Fatal(err)
	}
	var sb bytes.Buffer
	if _, err := sb.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !bytes.Contains(sb.Bytes(), []byte(`"events":[]`)) {
		t.Fatalf("empty result body %q must carry \"events\":[]", sb.String())
	}
}

// TestSinkOverflowDropsAndCounts: a sink writer that cannot keep up
// must never block Finish — excess lines are dropped and counted, and
// every line that was queued is still flushed by SetSink(nil).
func TestSinkOverflowDropsAndCounts(t *testing.T) {
	j := NewJournal(Options{Capacity: 4, SampleRate: 1, Now: fixedClock()})
	release := make(chan struct{})
	var delivered atomic.Uint64
	j.SetSink(func([]byte) {
		<-release
		delivered.Add(1)
	})
	const n = eventSinkBufferLines + 64
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < n; i++ {
			emitHealthy(j, fmt.Sprintf("r%d", i))
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Finish blocked on a stalled sink")
	}
	close(release)
	j.SetSink(nil) // flushes the queue and stops the drainer
	if j.SinkDropped() == 0 {
		t.Fatal("expected overflow lines to be dropped and counted")
	}
	if got := delivered.Load() + j.SinkDropped(); got != n {
		t.Fatalf("delivered %d + dropped %d = %d, want %d", delivered.Load(), j.SinkDropped(), got, n)
	}
}

// TestContextRoundTrip: the request's builder travels through its
// context, so every layer annotates the one event; a context without
// one yields the nil builder, whose methods do nothing.
func TestContextRoundTrip(t *testing.T) {
	j := NewJournal(Options{Capacity: 4, SampleRate: 1, Now: fixedClock()})
	b := j.Begin("ctx", "/evaluate")
	ctx := ContextWith(context.Background(), b)
	if got := FromContext(ctx); got != b {
		t.Fatalf("FromContext = %p, want %p", got, b)
	}
	FromContext(ctx).SetPolicy("constant:a")
	b.Finish(200)
	if ev := j.Events()[0]; ev.Policy != "constant:a" {
		t.Fatalf("annotation through the context lost: %+v", ev)
	}
	if FromContext(context.Background()) != nil {
		t.Fatal("empty context must yield a nil builder")
	}
}

// TestConcurrentRecordAndSetSink races Finish (the Record/emit path)
// against repeated SetSink install/replace/remove cycles — the
// sinkMu-guarded swap contract the lockguard annotation on
// Journal.sink documents. Under -race this is the regression test for
// that contract: emitters read the sink pointer lock-free while
// SetSink serializes swaps and flushes the outgoing drainer, so no
// delivered line may be lost, duplicated, or written after the final
// SetSink(nil) returns.
func TestConcurrentRecordAndSetSink(t *testing.T) {
	j := NewJournal(Options{Capacity: 64, SampleRate: 1, Now: fixedClock()})

	var delivered atomic.Uint64
	var closed atomic.Bool
	sink := func(line []byte) {
		if closed.Load() {
			t.Error("sink write after final SetSink(nil) returned")
		}
		if len(line) == 0 || line[len(line)-1] != '\n' {
			t.Errorf("malformed sink line %q", line)
		}
		delivered.Add(1)
	}

	const workers = 4
	const perWorker = 300
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				emitHealthy(j, fmt.Sprintf("w%d-%d", w, i))
			}
		}(w)
	}
	// Swap the sink concurrently with the emitters: install, replace,
	// remove, reinstall. Every cycle exercises the swap-flush path
	// while emit is loading the pointer lock-free.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			j.SetSink(sink)
			j.SetSink(sink)
			j.SetSink(nil)
		}
		j.SetSink(sink)
	}()
	wg.Wait()

	// Final removal flushes the last drainer; nothing may arrive after.
	j.SetSink(nil)
	closed.Store(true)

	st := j.Stats()
	if st.Emitted != workers*perWorker {
		t.Fatalf("emitted %d, want %d", st.Emitted, workers*perWorker)
	}
	if got := delivered.Load() + j.SinkDropped(); got > uint64(workers*perWorker) {
		t.Fatalf("delivered %d + dropped %d exceeds emitted %d", delivered.Load(), j.SinkDropped(), workers*perWorker)
	}
}
