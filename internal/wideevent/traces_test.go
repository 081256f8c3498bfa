package wideevent

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// manualClock is a journal clock that moves only when told to.
type manualClock struct{ t time.Time }

func newManualClock() *manualClock {
	return &manualClock{t: time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)}
}

func (c *manualClock) now() time.Time { return c.t }

func (c *manualClock) advance(ms int) { c.t = c.t.Add(time.Duration(ms) * time.Millisecond) }

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// TestPhaseOffsetsAndFailure: a phase records its first start offset
// from the request start and accumulates its duration; the first
// failure names its phase and keeps its message against later
// failures and the middleware's status backstop.
func TestPhaseOffsetsAndFailure(t *testing.T) {
	c := newManualClock()
	j := NewJournal(Options{Capacity: 8, SampleRate: 1, Now: c.now})
	b := j.Begin("r", "/evaluate")
	c.advance(2)
	end := b.Phase("fit_model")
	c.advance(3)
	end()
	end = b.Phase("estimate")
	c.advance(1)
	b.FailPhase("estimate", "boom")
	end()
	c.advance(4)
	end = b.Phase("fit_model")
	c.advance(1)
	end()
	b.FailPhase("fit_model", "later")
	b.SetError("status 422")
	b.Finish(422)

	ev := j.Events()[0]
	if ev.Error != "boom" || ev.FailedPhase != "estimate" {
		t.Fatalf("error %q in phase %q, want the first failure: boom in estimate", ev.Error, ev.FailedPhase)
	}
	for name, want := range map[string][2]float64{"fit_model": {2, 4}, "estimate": {5, 1}} {
		if off, ms := ev.PhaseStartMs[name], ev.PhaseMs[name]; !near(off, want[0]) || !near(ms, want[1]) {
			t.Fatalf("phase %s at %gms for %gms, want %gms for %gms", name, off, ms, want[0], want[1])
		}
	}
	if !near(ev.DurationMs, 11) {
		t.Fatalf("duration %gms, want 11", ev.DurationMs)
	}
}

// TestTraceHandlerServesSlowestTimelines: slowest orders the retained
// events slowest first, keeps commit order among equal durations,
// bounds the count by n, and draws each event's phases in start order
// with the failed phase's message; GET /debug/traces reads n with a
// default, a cap and a 400 for a malformed value.
func TestTraceHandlerServesSlowestTimelines(t *testing.T) {
	c := newManualClock()
	j := NewJournal(Options{Capacity: 128, SampleRate: 1, Now: c.now})
	emit := func(id string, ms int) {
		b := j.Begin(id, "/evaluate")
		c.advance(ms)
		b.Finish(200)
	}
	emit("a", 5)
	b := j.Begin("b", "/ingest")
	c.advance(1)
	end := b.Phase("ingest_decode")
	c.advance(2)
	end()
	end = b.Phase("durable_ingest")
	b.FailPhase("durable_ingest", "disk full")
	c.advance(6)
	end()
	b.SetError("status 500")
	b.Finish(500)
	emit("c", 5)
	emit("d", 1)

	ids := func(tls []timeline) string {
		var out []string
		for _, tl := range tls {
			out = append(out, tl.Trace)
		}
		return strings.Join(out, ",")
	}
	for n, want := range map[int]string{10: "b,a,c,d", 4: "b,a,c,d", 2: "b,a", 0: "", -1: ""} {
		if got := ids(j.slowest(n)); got != want {
			t.Fatalf("slowest(%d) = %q, want %q", n, got, want)
		}
	}

	tl := j.slowest(1)[0]
	if tl.Root != "http/ingest" || tl.Status != 500 || tl.Error != "disk full" || !near(tl.DurationMs, 9) {
		t.Fatalf("timeline = %+v", tl)
	}
	want := []timelinePhase{
		{Name: "ingest_decode", StartOffsetMs: 1, DurationMs: 2},
		{Name: "durable_ingest", StartOffsetMs: 3, DurationMs: 6, Error: "disk full"},
	}
	if len(tl.Phases) != len(want) {
		t.Fatalf("phases = %+v, want %+v", tl.Phases, want)
	}
	for i, p := range tl.Phases {
		w := want[i]
		if p.Name != w.Name || p.Error != w.Error || !near(p.StartOffsetMs, w.StartOffsetMs) || !near(p.DurationMs, w.DurationMs) {
			t.Fatalf("phase %d = %+v, want %+v", i, p, w)
		}
	}

	for i := 0; i < 120; i++ {
		emit(fmt.Sprintf("bulk-%d", i), 0)
	}
	srv := httptest.NewServer(j.TracesHandler())
	defer srv.Close()
	for query, want := range map[string]int{"": DefaultTraces, "?n=3": 3, "?n=1000": MaxTraces, "?n=0": -1, "?n=bogus": -1} {
		resp, err := srv.Client().Get(srv.URL + "/" + query)
		if err != nil {
			t.Fatal(err)
		}
		var body tracesResponse
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if want < 0 {
			if resp.StatusCode != 400 {
				t.Fatalf("%q answered %d, want 400", query, resp.StatusCode)
			}
			continue
		}
		if err != nil || resp.StatusCode != 200 || len(body.Traces) != want || body.Stats.Recorded != 124 {
			t.Fatalf("%q: status %d, %d traces, stats %+v, err %v; want %d traces", query, resp.StatusCode, len(body.Traces), body.Stats, err, want)
		}
	}

	// An empty journal serves [] rather than null.
	rw := httptest.NewRecorder()
	NewJournal(Options{}).TracesHandler().ServeHTTP(rw, httptest.NewRequest("GET", "/", nil))
	if !strings.Contains(rw.Body.String(), `"traces":[]`) {
		t.Fatalf("empty journal body %q must carry \"traces\":[]", rw.Body.String())
	}
}
