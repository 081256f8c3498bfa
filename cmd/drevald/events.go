package main

import (
	"sort"
	"time"

	"drnet/internal/obs"
	"drnet/internal/resilience"
	"drnet/internal/slo"
	"drnet/internal/wideevent"
)

// Wide-event journal + SLO engine wiring: every instrumented compute
// request (/evaluate, /diagnose, /ingest) emits exactly one flat
// canonical event into the journal, the request's only record. Two
// observers see the full (pre-sampling) stream: the SLO engine turns
// it into multi-window burn rates and an ok → warning → page state
// machine, and observeSpans into the obs_span_* metrics. Queryable on
// the service and debug muxes as GET /debug/events (filter language),
// GET /debug/traces (the slowest retained events as timelines) and
// GET /debug/slo; counters and gauges on /metrics; rollups on /healthz
// and /debug/vars.

// initEvents builds the journal (-events-buffer, -events-sample,
// -events-slow-ms, -events-seed) and the SLO engine (-slo-config) on
// the clock now, nil meaning the wall clock, and feeds every emitted
// event to the engine and to observeSpans. newServer calls it with
// nil; tests call it again with a fixed clock before serving, for
// byte-identical events.
func (s *server) initEvents(now func() time.Time) error {
	cfg, err := s.cfg.sloObjectives()
	if err != nil {
		return err
	}
	eng, err := slo.New(cfg, now)
	if err != nil {
		return err
	}
	eng.SetHook(s.sloTransition)
	s.slo = eng
	s.journal = wideevent.NewJournal(wideevent.Options{
		Capacity:   s.cfg.eventsBuffer,
		SampleRate: s.cfg.eventsSample,
		SlowMs:     s.cfg.eventsSlowMs,
		Seed:       s.cfg.eventsSeed,
		Now:        now,
	})
	s.journal.Observe(eng.Observe)
	s.journal.Observe(s.observeSpans)
	return nil
}

// observeSpans reads one finished request's timings off its event into
// obs_span_seconds{span}: the request as a whole under http/<route>,
// then each phase, with the request ID as the bucket exemplar.
// obs_span_errors_total{span} counts the root when the answer was a
// 5xx or degraded, and the phase that failed.
func (s *server) observeSpans(ev *wideevent.Event) {
	root := "http" + ev.Route
	s.reg.Histogram("obs_span_seconds", obs.TimeBuckets, obs.L("span", root)).ObserveExemplar(ev.DurationMs/1000, ev.RequestID)
	for name, ms := range ev.PhaseMs {
		s.reg.Histogram("obs_span_seconds", obs.TimeBuckets, obs.L("span", name)).ObserveExemplar(ms/1000, ev.RequestID)
	}
	if ev.Status >= 500 || ev.Degraded {
		s.reg.Counter("obs_span_errors_total", obs.L("span", root)).Inc()
	}
	if ev.FailedPhase != "" {
		s.reg.Counter("obs_span_errors_total", obs.L("span", ev.FailedPhase)).Inc()
	}
}

// registerEventMetrics exports the journal's counters and the SLO
// engine's per-objective gauges, both refreshed at scrape time. One
// Eval per scrape also advances the alert state machine, so burn state
// converges even when nobody polls /debug/slo.
func (s *server) registerEventMetrics() {
	s.reg.Help("drevald_slo_state", "Current alert state per objective: 0 ok, 1 warning, 2 page.")
	s.reg.Help("drevald_slo_budget_remaining", "Unspent error-budget fraction over the longest window, per objective (negative = overspent).")
	obs.RegisterLossCounter(s.reg, "drevald_events_emitted_total",
		"Wide events emitted by completed requests (before tail sampling).",
		func() (uint64, bool) { return s.journal.Stats().Emitted, true })
	obs.RegisterLossCounter(s.reg, "drevald_events_sampled_out_total",
		"Healthy wide events dropped by tail-biased sampling (-events-sample).",
		func() (uint64, bool) { return s.journal.Stats().SampledOut, true })
	obs.RegisterLossCounter(s.reg, "drevald_events_sink_dropped_total",
		"Wide-event JSONL lines dropped because the -events-out queue was full.",
		func() (uint64, bool) { return s.journal.SinkDropped(), true })
	s.reg.RegisterSampler(func() {
		for _, o := range s.slo.Eval().Objectives {
			st, _ := slo.ParseStateName(o.State)
			s.reg.Gauge("drevald_slo_state", obs.L("objective", o.Name)).Set(float64(st))
			s.reg.Gauge("drevald_slo_budget_remaining", obs.L("objective", o.Name)).Set(o.BudgetRemaining)
		}
	})
}

// sloTransition is the engine hook: log every state change, count it,
// and maintain the active-page set that handlers fold into degraded
// responses when -degrade-on-slo-page is set.
func (s *server) sloTransition(tr slo.Transition) {
	s.m.sloTransitions.Inc()
	s.log.Warn("slo transition",
		"objective", tr.Objective,
		"from", tr.From.String(),
		"to", tr.To.String(),
		"window", tr.Window,
		"burn", tr.Burn,
	)
	s.pageMu.Lock()
	defer s.pageMu.Unlock()
	if tr.To == slo.StatePage {
		s.pages[tr.Objective] = resilience.SLOBurnReason(tr.Objective, tr.Burn, tr.Threshold)
	} else {
		delete(s.pages, tr.Objective)
	}
}

// sloDegradeReasons returns the active page-severity burn reasons in
// objective order (deterministic), or nil when -degrade-on-slo-page
// is off or nothing is paging. Burn state advances on Eval — scrapes,
// /debug/slo and /healthz — not per request, so the per-request cost
// here is one mutex hold over a tiny map.
func (s *server) sloDegradeReasons() []resilience.Reason {
	if !s.cfg.degradeOnSLOPage {
		return nil
	}
	s.pageMu.Lock()
	defer s.pageMu.Unlock()
	if len(s.pages) == 0 {
		return nil
	}
	names := make([]string, 0, len(s.pages))
	for name := range s.pages {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]resilience.Reason, 0, len(names))
	for _, name := range names {
		out = append(out, s.pages[name])
	}
	return out
}

// reasonCodes projects degradation reasons onto their machine-readable
// codes — the wide event carries the codes, not the prose.
func reasonCodes(reasons []resilience.Reason) []string {
	out := make([]string, len(reasons))
	for i, r := range reasons {
		out[i] = r.Code
	}
	return out
}
