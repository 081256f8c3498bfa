package wideevent

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
)

// DefaultQueryLimit is how many matching events GET /debug/events
// returns when the query does not say; MaxQueryLimit caps limit=.
const (
	DefaultQueryLimit = 100
	MaxQueryLimit     = 1000
)

// Filter is the parsed /debug/events query: the small filter language
// is `field=value` exact matches over the canonical event fields
// (plus Extra keys), with three special keys — `minLatencyMs=` (total
// duration at least), `degraded=true|false`, and `limit=` (most
// recent N matches).
type Filter struct {
	// Limit bounds the result to the most recent N matches (commit
	// order preserved). 0 means DefaultQueryLimit.
	Limit int
	// MinLatencyMs drops events faster than this.
	MinLatencyMs float64
	// Degraded, when non-nil, requires the event's degraded flag to
	// match.
	Degraded *bool
	// Fields are the remaining exact-match conditions; every one must
	// hold (conjunction), so match order is irrelevant.
	Fields map[string]string
}

// ParseFilter builds a Filter from URL query values. Unknown field
// names are legal — they match against Extra annotations and simply
// never match events that lack them; malformed values for the typed
// keys are errors. The typed keys are checked in a fixed order —
// limit, minLatencyMs, degraded — so a query with several bad values
// always names the same one.
func ParseFilter(q url.Values) (Filter, error) {
	f := Filter{Limit: DefaultQueryLimit}
	if v, ok := first(q, "limit"); ok {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			return Filter{}, fmt.Errorf("limit must be a positive integer, got %q", v)
		}
		f.Limit = min(n, MaxQueryLimit)
	}
	if v, ok := first(q, "minLatencyMs"); ok {
		ms, err := strconv.ParseFloat(v, 64)
		if err != nil || ms < 0 {
			return Filter{}, fmt.Errorf("minLatencyMs must be a non-negative number, got %q", v)
		}
		f.MinLatencyMs = ms
	}
	if v, ok := first(q, "degraded"); ok {
		b, err := strconv.ParseBool(v)
		if err != nil {
			return Filter{}, fmt.Errorf("degraded must be true or false, got %q", v)
		}
		f.Degraded = &b
	}
	for key, vals := range q {
		if len(vals) == 0 || key == "limit" || key == "minLatencyMs" || key == "degraded" {
			continue
		}
		if f.Fields == nil {
			f.Fields = make(map[string]string, len(q))
		}
		f.Fields[key] = vals[0]
	}
	return f, nil
}

// first returns key's first value in q, if it has one.
func first(q url.Values, key string) (string, bool) {
	if vals := q[key]; len(vals) > 0 {
		return vals[0], true
	}
	return "", false
}

// Match reports whether ev satisfies every condition.
func (f Filter) Match(ev *Event) bool {
	if ev == nil {
		return false
	}
	if f.MinLatencyMs > 0 && ev.DurationMs < f.MinLatencyMs {
		return false
	}
	if f.Degraded != nil && ev.Degraded != *f.Degraded {
		return false
	}
	for k, want := range f.Fields {
		got, ok := ev.Field(k)
		if !ok || got != want {
			return false
		}
	}
	return true
}

// Query returns the retained events matching f, oldest first, capped
// to the most recent Limit matches.
func (j *Journal) Query(f Filter) []*Event {
	evs := j.Events()
	out := make([]*Event, 0, len(evs))
	for _, ev := range evs {
		if f.Match(ev) {
			out = append(out, ev)
		}
	}
	limit := f.Limit
	if limit <= 0 {
		limit = DefaultQueryLimit
	}
	if len(out) > limit {
		out = out[len(out)-limit:]
	}
	return out
}

// queryResponse is the GET /debug/events body.
type queryResponse struct {
	Stats  Stats    `json:"stats"`
	Events []*Event `json:"events"`
}

// Handler serves GET /debug/events: the filter language over the
// retained ring, plus the journal counters. Bad filter values get a
// 400 with a machine-readable error.
func (j *Journal) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		f, err := ParseFilter(r.URL.Query())
		w.Header().Set("Content-Type", "application/json")
		if err != nil {
			w.WriteHeader(http.StatusBadRequest)
			_ = json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
			return
		}
		evs := j.Query(f)
		if evs == nil {
			evs = []*Event{}
		}
		_ = json.NewEncoder(w).Encode(queryResponse{Stats: j.Stats(), Events: evs})
	})
}
