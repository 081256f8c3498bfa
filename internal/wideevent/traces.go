package wideevent

import (
	"cmp"
	"encoding/json"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"time"
)

// DefaultTraces is how many timelines GET /debug/traces returns when
// the query does not say; MaxTraces caps n=.
const (
	DefaultTraces = 10
	MaxTraces     = 100
)

// timeline is one retained event drawn as a request timeline: the
// root (the request as a whole) and its phases in start order.
type timeline struct {
	// Trace is the request ID; Root is "http" + route.
	Trace      string          `json:"trace"`
	Root       string          `json:"root"`
	Start      time.Time       `json:"start"`
	DurationMs float64         `json:"durationMs"`
	Status     int             `json:"status"`
	Degraded   bool            `json:"degraded,omitempty"`
	Error      string          `json:"error,omitempty"`
	Phases     []timelinePhase `json:"phases,omitempty"`
}

// timelinePhase is one phase of a timeline. Error is set on the phase
// that failed.
type timelinePhase struct {
	Name          string  `json:"name"`
	StartOffsetMs float64 `json:"startOffsetMs"`
	DurationMs    float64 `json:"durationMs"`
	Error         string  `json:"error,omitempty"`
}

// slowest returns the n slowest retained events as timelines, slowest
// first. Events of equal duration keep commit order (oldest first).
func (j *Journal) slowest(n int) []timeline {
	evs := j.Events()
	slices.SortStableFunc(evs, func(a, b *Event) int { return cmp.Compare(b.DurationMs, a.DurationMs) })
	evs = evs[:min(max(n, 0), len(evs))]
	out := make([]timeline, len(evs))
	for i, ev := range evs {
		out[i] = draw(ev)
	}
	return out
}

// draw renders ev as a timeline, phases ordered by start offset, then
// by name.
func draw(ev *Event) timeline {
	tl := timeline{
		Trace:      ev.RequestID,
		Root:       "http" + ev.Route,
		Start:      ev.Time,
		DurationMs: ev.DurationMs,
		Status:     ev.Status,
		Degraded:   ev.Degraded,
		Error:      ev.Error,
	}
	for name, ms := range ev.PhaseMs {
		p := timelinePhase{Name: name, StartOffsetMs: ev.PhaseStartMs[name], DurationMs: ms}
		if name == ev.FailedPhase {
			p.Error = ev.Error
		}
		tl.Phases = append(tl.Phases, p)
	}
	slices.SortFunc(tl.Phases, func(a, b timelinePhase) int {
		return cmp.Or(cmp.Compare(a.StartOffsetMs, b.StartOffsetMs), strings.Compare(a.Name, b.Name))
	})
	return tl
}

// tracesResponse is the GET /debug/traces body.
type tracesResponse struct {
	Stats  Stats      `json:"stats"`
	Traces []timeline `json:"traces"`
}

// TracesHandler serves GET /debug/traces?n=: the n slowest retained
// requests as timelines (default DefaultTraces, capped at MaxTraces),
// so it shows exactly the requests GET /debug/events shows. A
// malformed n gets a 400 with a machine-readable error.
func (j *Journal) TracesHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		n := DefaultTraces
		if q := r.URL.Query().Get("n"); q != "" {
			v, err := strconv.Atoi(q)
			if err != nil || v < 1 {
				w.WriteHeader(http.StatusBadRequest)
				_ = json.NewEncoder(w).Encode(map[string]string{"error": "n must be a positive integer"})
				return
			}
			n = min(v, MaxTraces)
		}
		_ = json.NewEncoder(w).Encode(tracesResponse{Stats: j.Stats(), Traces: j.slowest(n)})
	})
}
