package slo

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"drnet/internal/biasobs"
	"drnet/internal/wideevent"
)

// fakeClock is a hand-advanced clock shared by a journal and an
// engine in the burn-rate tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

func ev(route string, status int, durMs float64) *wideevent.Event {
	return &wideevent.Event{Route: route, Status: status, DurationMs: durMs}
}

func TestParseConfig(t *testing.T) {
	cfg, err := Parse([]byte(`{
		"objectives": [
			{"name": "avail", "kind": "availability", "target": 0.99},
			{"name": "lat", "kind": "latency", "routes": ["/evaluate"], "target": 0.95, "latencyMs": 100}
		]
	}`))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(cfg.Windows) != 2 || cfg.Windows[0].Name != "fast" {
		t.Fatalf("expected default windows, got %+v", cfg.Windows)
	}
	if cfg.BucketSeconds != 10 {
		t.Fatalf("expected default bucketSeconds 10, got %d", cfg.BucketSeconds)
	}

	bad := []struct {
		name, doc, wantErr string
	}{
		{"empty", `{}`, "at least one objective"},
		{"unknownField", `{"objectives":[{"name":"a","kind":"availability","target":0.9}],"bucketSecs":5}`, "invalid config"},
		{"unknownKind", `{"objectives":[{"name":"a","kind":"uptime","target":0.9}]}`, "unknown kind"},
		{"badTarget", `{"objectives":[{"name":"a","kind":"availability","target":1.5}]}`, "must be in (0, 1]"},
		{"latNoBound", `{"objectives":[{"name":"a","kind":"latency","target":0.9}]}`, "latencyMs > 0"},
		{"dupName", `{"objectives":[{"name":"a","kind":"availability","target":0.9},{"name":"a","kind":"availability","target":0.9}]}`, "duplicate objective"},
		{"badSeverity", `{"objectives":[{"name":"a","kind":"availability","target":0.9}],"windows":[{"name":"w","shortSeconds":60,"longSeconds":600,"burn":2,"severity":"critical"}]}`, "unknown severity"},
		{"badWindow", `{"objectives":[{"name":"a","kind":"availability","target":0.9}],"windows":[{"name":"w","shortSeconds":600,"longSeconds":60,"burn":2,"severity":"page"}]}`, "shortSeconds <= longSeconds"},
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Parse([]byte(tc.doc)); err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Parse(%s) err = %v, want containing %q", tc.name, err, tc.wantErr)
			}
		})
	}
}

func TestClassifyTable(t *testing.T) {
	avail := Objective{Name: "a", Kind: KindAvailability, Target: 0.99}
	availEval := Objective{Name: "a2", Kind: KindAvailability, Routes: []string{"/evaluate"}, Target: 0.99}
	lat := Objective{Name: "l", Kind: KindLatency, Target: 0.99, LatencyMs: 100}
	stale := Objective{Name: "s", Kind: KindStaleness, Target: 0.99, StalenessRecords: 50}
	drift := Objective{Name: "d", Kind: KindDriftFree, Target: 0.95}

	streamed := &wideevent.Event{Route: "/evaluate", Status: 200, Streamed: true, StalenessRecords: 10}
	staleEv := &wideevent.Event{Route: "/evaluate", Status: 200, Streamed: true, StalenessRecords: 99}
	graded := &wideevent.Event{Route: "/evaluate", Status: 200, BiasGrade: biasobs.GradeHealthy}
	drifted := &wideevent.Event{Route: "/evaluate", Status: 200, BiasGrade: biasobs.GradeDrift}

	cases := []struct {
		name          string
		obj           Objective
		ev            *wideevent.Event
		inScope, good bool
	}{
		{"ok", avail, ev("/evaluate", 200, 1), true, true},
		{"client4xxGood", avail, ev("/evaluate", 422, 1), true, true},
		{"shed429Good", avail, ev("/evaluate", 429, 1), true, true},
		{"server5xxBad", avail, ev("/evaluate", 500, 1), true, false},
		{"routeScoped", availEval, ev("/ingest", 500, 1), false, false},
		{"routeScopedIn", availEval, ev("/evaluate", 500, 1), true, false},
		{"fast", lat, ev("/evaluate", 200, 99), true, true},
		{"atBound", lat, ev("/evaluate", 200, 100), true, true},
		{"slow", lat, ev("/evaluate", 200, 101), true, false},
		{"notStreamedOutOfScope", stale, ev("/evaluate", 200, 1), false, false},
		{"fresh", stale, streamed, true, true},
		{"stale", stale, staleEv, true, false},
		{"ungradedOutOfScope", drift, ev("/evaluate", 200, 1), false, false},
		{"healthy", drift, graded, true, true},
		{"watchStillGood", drift, &wideevent.Event{BiasGrade: biasobs.GradeWatch}, true, true},
		{"drifted", drift, drifted, true, false},
		{"nilEvent", avail, nil, false, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			inScope, good := tc.obj.Classify(tc.ev)
			if inScope != tc.inScope || good != tc.good {
				t.Fatalf("Classify = (%v, %v), want (%v, %v)", inScope, good, tc.inScope, tc.good)
			}
		})
	}
}

func TestSummarize(t *testing.T) {
	objs := []Objective{
		{Name: "avail", Kind: KindAvailability, Target: 0.75},
		{Name: "stale", Kind: KindStaleness, Target: 0.99, StalenessRecords: 10},
	}
	events := []*wideevent.Event{
		ev("/evaluate", 200, 1),
		ev("/evaluate", 200, 1),
		ev("/evaluate", 500, 1),
		ev("/evaluate", 200, 1),
	}
	out := Summarize(objs, events)
	if len(out) != 2 {
		t.Fatalf("len = %d, want 2", len(out))
	}
	if out[0].Good != 3 || out[0].Total != 4 || !out[0].Met {
		t.Fatalf("avail = %+v, want 3/4 met", out[0])
	}
	// No streamed events: staleness has an empty scope, which cannot
	// violate the target.
	if out[1].Total != 0 || out[1].Ratio != 1 || !out[1].Met {
		t.Fatalf("stale = %+v, want empty-scope met", out[1])
	}

	// Order independence: reversing the event list changes nothing.
	rev := make([]*wideevent.Event, len(events))
	for i, e := range events {
		rev[len(events)-1-i] = e
	}
	a, _ := json.Marshal(out)
	b, _ := json.Marshal(Summarize(objs, rev))
	if string(a) != string(b) {
		t.Fatalf("Summarize is order-dependent:\n%s\n%s", a, b)
	}
}

// testConfig is a single availability objective with one fast page
// window and one slow warning window over small spans so tests can
// walk the clock through escalation and recovery quickly.
func testConfig() Config {
	return Config{
		Objectives: []Objective{{Name: "avail", Kind: KindAvailability, Target: 0.9}},
		Windows: []Window{
			{Name: "fast", ShortSeconds: 60, LongSeconds: 300, Burn: 5, Severity: "page"},
			{Name: "slow", ShortSeconds: 120, LongSeconds: 600, Burn: 2, Severity: "warning"},
		},
		BucketSeconds: 10,
	}
}

func TestBurnRateEscalationAndRecovery(t *testing.T) {
	clock := newFakeClock()
	eng, err := New(testConfig(), clock.Now)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	var transitions []Transition
	eng.SetHook(func(tr Transition) { transitions = append(transitions, tr) })

	// Phase 1: healthy traffic. Burn stays 0, state ok.
	for i := 0; i < 50; i++ {
		eng.Observe(ev("/evaluate", 200, 1))
		clock.Advance(time.Second)
	}
	rep := eng.Eval()
	if rep.State != "ok" || rep.Objectives[0].State != "ok" {
		t.Fatalf("healthy state = %s/%s, want ok", rep.State, rep.Objectives[0].State)
	}
	if len(transitions) != 0 {
		t.Fatalf("unexpected transitions: %+v", transitions)
	}

	// Phase 2: moderate failure — 30% bad burns at 3× (between the
	// slow threshold 2 and the fast threshold 5) in both slow windows
	// → warning, not page.
	for i := 0; i < 100; i++ {
		status := 200
		if i%10 < 3 {
			status = 500
		}
		eng.Observe(ev("/evaluate", status, 1))
		clock.Advance(time.Second)
	}
	rep = eng.Eval()
	if rep.State != "warning" {
		t.Fatalf("moderate-failure state = %s, want warning", rep.State)
	}
	if len(transitions) != 1 || transitions[0].To != StateWarning || transitions[0].From != StateOK {
		t.Fatalf("transitions = %+v, want single ok->warning", transitions)
	}
	if transitions[0].Objective != "avail" || transitions[0].Window != "slow" {
		t.Fatalf("transition detail = %+v, want avail/slow", transitions[0])
	}

	// Phase 3: total outage — 100% bad burns at 10× in the fast pair
	// → page (budget exhausted many times over).
	for i := 0; i < 120; i++ {
		eng.Observe(ev("/evaluate", 500, 1))
		clock.Advance(time.Second)
	}
	rep = eng.Eval()
	if rep.State != "page" {
		t.Fatalf("outage state = %s, want page", rep.State)
	}
	if n := len(transitions); n != 2 || transitions[1].To != StatePage {
		t.Fatalf("transitions = %+v, want warning->page appended", transitions)
	}
	fast := rep.Objectives[0].Windows[0]
	if !fast.Firing || fast.ShortBurn < 5 {
		t.Fatalf("fast window = %+v, want firing with burn >= 5", fast)
	}
	if rep.Objectives[0].BudgetRemaining >= 0 {
		t.Fatalf("budgetRemaining = %g, want negative during outage", rep.Objectives[0].BudgetRemaining)
	}

	// Phase 4: recovery — healthy traffic while the short windows
	// drain. The short window clearing un-fires the alert even while
	// the long window still remembers the outage.
	for i := 0; i < 300; i++ {
		eng.Observe(ev("/evaluate", 200, 1))
		clock.Advance(time.Second)
	}
	rep = eng.Eval()
	if rep.State != "ok" {
		t.Fatalf("post-recovery state = %s, want ok", rep.State)
	}
	last := transitions[len(transitions)-1]
	if last.To != StateOK || last.From != StatePage {
		t.Fatalf("last transition = %+v, want page->ok", last)
	}

	// Phase 5: the ring forgets — after the longest window passes with
	// no traffic at all, burns read 0.
	clock.Advance(700 * time.Second)
	rep = eng.Eval()
	for _, w := range rep.Objectives[0].Windows {
		if w.ShortBurn != 0 || w.LongBurn != 0 {
			t.Fatalf("window %s burns = %g/%g after idle, want 0", w.Window, w.ShortBurn, w.LongBurn)
		}
	}
}

func TestShortWindowGuardsAgainstOldBurn(t *testing.T) {
	// A burst of errors inside the long window but outside the short
	// one must NOT fire: the multi-window AND is the whole point.
	clock := newFakeClock()
	eng, err := New(testConfig(), clock.Now)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for i := 0; i < 150; i++ {
		eng.Observe(ev("/evaluate", 500, 1))
		clock.Advance(time.Second)
	}
	// Walk past both short windows (60s and 120s) with healthy traffic;
	// the 150 errors still dominate the fast 300s long window.
	for i := 0; i < 150; i++ {
		eng.Observe(ev("/evaluate", 200, 1))
		clock.Advance(time.Second)
	}
	rep := eng.Eval()
	fast := rep.Objectives[0].Windows[0]
	if fast.LongBurn < 4 {
		t.Fatalf("long burn = %g, want >= 4 (errors still in long window)", fast.LongBurn)
	}
	if fast.ShortBurn >= 1 || fast.Firing {
		t.Fatalf("fast window = %+v, want short window clean and not firing", fast)
	}
	if rep.State != "ok" {
		t.Fatalf("state = %s, want ok", rep.State)
	}
}

func TestReportByteDeterminism(t *testing.T) {
	// Two engines fed the same multiset of events in different orders
	// under identical clocks produce byte-identical reports.
	build := func(reverse bool) []byte {
		clock := newFakeClock()
		eng, err := New(DefaultConfig(), clock.Now)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		events := []*wideevent.Event{
			ev("/evaluate", 200, 10),
			ev("/evaluate", 500, 400),
			ev("/ingest", 200, 5),
			{Route: "/evaluate", Status: 200, DurationMs: 20, Streamed: true, StalenessRecords: 3},
			{Route: "/evaluate", Status: 200, DurationMs: 30, BiasGrade: biasobs.GradeDrift},
		}
		if reverse {
			for i, j := 0, len(events)-1; i < j; i, j = i+1, j-1 {
				events[i], events[j] = events[j], events[i]
			}
		}
		for _, e := range events {
			eng.Observe(e)
		}
		b, err := json.Marshal(eng.Eval())
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		return b
	}
	a, b := build(false), build(true)
	if string(a) != string(b) {
		t.Fatalf("report is order-dependent:\n%s\n%s", a, b)
	}
}

func TestEngineHandler(t *testing.T) {
	clock := newFakeClock()
	eng, err := New(DefaultConfig(), clock.Now)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	eng.Observe(ev("/evaluate", 200, 10))
	rec := httptest.NewRecorder()
	eng.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/slo", nil))
	if rec.Code != 200 {
		t.Fatalf("status = %d", rec.Code)
	}
	var rep Report
	if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if rep.State != "ok" || len(rep.Objectives) != 4 {
		t.Fatalf("report = %+v, want ok with 4 objectives", rep)
	}
}

func TestJournalObserverFeedsEngine(t *testing.T) {
	// End-to-end inside the libraries: a journal at SampleRate 0 still
	// delivers every event to the engine via Observe.
	clock := newFakeClock()
	j := wideevent.NewJournal(wideevent.Options{Capacity: 4, SampleRate: 0, Seed: 1, Now: clock.Now})
	eng, err := New(testConfig(), clock.Now)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	j.Observe(eng.Observe)
	for i := 0; i < 10; i++ {
		b := j.Begin("r", "/evaluate")
		b.Finish(200)
	}
	rep := eng.Eval()
	if rep.Objectives[0].Total != 10 {
		t.Fatalf("engine saw %d events, want 10 (sampling must not hide events)", rep.Objectives[0].Total)
	}
	if st := j.Stats(); st.Recorded != 0 {
		t.Fatalf("journal retained %d, want 0 at SampleRate 0", st.Recorded)
	}
}

func TestNilEngineSafe(t *testing.T) {
	var e *Engine
	e.Observe(ev("/evaluate", 200, 1))
	rep := e.Eval()
	if rep.State != "ok" {
		t.Fatalf("nil engine state = %s, want ok", rep.State)
	}
}
