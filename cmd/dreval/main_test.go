package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"drnet/internal/core"
	"drnet/internal/mathx"
	"drnet/internal/traceio"
	"drnet/internal/wideevent"
)

func writeTestTrace(t *testing.T, blankPropensities bool) string {
	t.Helper()
	rng := mathx.NewRNG(1)
	old := core.EpsilonGreedyPolicy[float64, int]{
		Base:      func(float64) int { return 0 },
		Decisions: []int{0, 1, 2},
		Epsilon:   0.4,
	}
	var ctxs []float64
	for i := 0; i < 600; i++ {
		ctxs = append(ctxs, float64(rng.Intn(4))) // discrete contexts so grouping works
	}
	tr := core.CollectTrace(ctxs, old, func(x float64, d int) float64 {
		return x*float64(d+1) + rng.Normal(0, 0.1)
	}, rng)
	if blankPropensities {
		for i := range tr {
			tr[i].Propensity = 0
		}
	}
	ft := traceio.Flatten(tr,
		func(x float64) []float64 { return []float64{x} },
		func(d int) string { return []string{"a", "b", "c"}[d] })
	path := filepath.Join(t.TempDir(), "trace.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := traceio.WriteCSV(f, ft); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunConstantPolicy(t *testing.T) {
	path := writeTestTrace(t, false)
	if err := run(path, "csv", "constant:c", false, 0, false, 50, 1, 0, false, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRunBestObserved(t *testing.T) {
	path := writeTestTrace(t, false)
	if err := run(path, "csv", "best-observed", false, 10, true, 0, 1, 0, false, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRunEstimatesPropensities(t *testing.T) {
	path := writeTestTrace(t, true)
	// Without estimation the trace is invalid...
	if err := run(path, "csv", "constant:c", false, 0, false, 0, 1, 0, false, nil); err == nil {
		t.Fatal("expected validation error for zero propensities")
	}
	// ...with estimation it works.
	if err := run(path, "csv", "constant:c", true, 0, false, 0, 1, 0, false, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run("/does/not/exist.csv", "csv", "constant:c", false, 0, false, 0, 1, 0, false, nil); err == nil {
		t.Fatal("expected file error")
	}
	path := writeTestTrace(t, false)
	if err := run(path, "tsv", "constant:c", false, 0, false, 0, 1, 0, false, nil); err == nil {
		t.Fatal("expected format error")
	}
	if err := run(path, "csv", "wat", false, 0, false, 0, 1, 0, false, nil); err == nil {
		t.Fatal("expected policy error")
	}
	if err := run(path, "csv", "constant:", false, 0, false, 0, 1, 0, false, nil); err == nil {
		t.Fatal("expected empty-decision error")
	}
	// Non-finite features share no key with anything, so they are
	// refused up front rather than merged into one context.
	nonFinite := filepath.Join(t.TempDir(), "nonfinite.csv")
	csv := "f0,f1,decision,reward,propensity\n" +
		"NaN,1,a,0.5,0.5\nNaN,2,b,0.9,0.5\n+Inf,3,a,0.8,0.5\n1,1,a,0.4,0.5\n1,1,b,0.7,0.5\n"
	if err := os.WriteFile(nonFinite, []byte(csv), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run(nonFinite, "csv", "best-observed", false, 0, false, 0, 1, 0, false, nil)
	if err == nil || !strings.Contains(err.Error(), "record 0: feature 0 must be finite, got NaN") {
		t.Fatalf("non-finite features: got %v, want the record-addressed error", err)
	}
}

func TestBuildPolicyBestObserved(t *testing.T) {
	trace := core.Trace[traceio.FlatContext, string]{
		{Context: traceio.FlatContext{Features: []float64{1}}, Decision: "a", Reward: 1, Propensity: 1},
		{Context: traceio.FlatContext{Features: []float64{1}}, Decision: "b", Reward: 5, Propensity: 1},
		{Context: traceio.FlatContext{Features: []float64{2}}, Decision: "a", Reward: 9, Propensity: 1},
	}
	p, err := traceio.ParsePolicy("best-observed", trace)
	if err != nil {
		t.Fatal(err)
	}
	// Context {1}: b is best. Context {2}: a. Unseen context: global
	// best (a: mean 5 vs b: 5 — the tie goes to a, logged first).
	got := p.Distribution(traceio.FlatContext{Features: []float64{1}})
	if got[0].Decision != "b" {
		t.Fatalf("context 1 best = %q, want b", got[0].Decision)
	}
	got = p.Distribution(traceio.FlatContext{Features: []float64{2}})
	if got[0].Decision != "a" {
		t.Fatalf("context 2 best = %q, want a", got[0].Decision)
	}
	unseen := p.Distribution(traceio.FlatContext{Features: []float64{99}})
	if unseen[0].Decision != "a" {
		t.Fatalf("unseen context best = %q, want a", unseen[0].Decision)
	}
}

// captureStdout runs fn with os.Stdout redirected to a pipe and
// returns everything it printed.
func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	orig := os.Stdout
	os.Stdout = w
	defer func() { os.Stdout = orig }()
	done := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		done <- string(b)
	}()
	runErr := fn()
	w.Close()
	out := <-done
	os.Stdout = orig
	if runErr != nil {
		t.Fatalf("run failed: %v\noutput:\n%s", runErr, out)
	}
	return out
}

func TestRunWindowedReport(t *testing.T) {
	path := writeTestTrace(t, false)
	out := captureStdout(t, func() error {
		return run(path, "csv", "constant:c", false, 0, false, 0, 1, 6, false, nil)
	})
	if !strings.Contains(out, "bias observatory:") {
		t.Fatalf("windowed report missing from output:\n%s", out)
	}
	if !strings.Contains(out, "grade=") {
		t.Fatalf("report grade missing from output:\n%s", out)
	}
	if !strings.Contains(out, "DM") {
		t.Fatalf("estimators missing without -diagnose:\n%s", out)
	}
}

func TestRunDiagnoseOnlySkipsEstimators(t *testing.T) {
	path := writeTestTrace(t, false)
	out := captureStdout(t, func() error {
		return run(path, "csv", "constant:c", false, 0, false, 0, 1, 8, true, nil)
	})
	if !strings.Contains(out, "bias observatory:") {
		t.Fatalf("windowed report missing from output:\n%s", out)
	}
	if strings.Contains(out, "DM") || strings.Contains(out, "IPS:") {
		t.Fatalf("-diagnose still ran the estimators:\n%s", out)
	}
}

func TestRunJSONL(t *testing.T) {
	// Convert the CSV fixture to JSONL and evaluate.
	path := writeTestTrace(t, false)
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	ft, err := traceio.ReadCSV(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	jpath := filepath.Join(t.TempDir(), "trace.jsonl")
	jf, err := os.Create(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if err := traceio.WriteJSONL(jf, ft); err != nil {
		t.Fatal(err)
	}
	jf.Close()
	if err := run(jpath, "jsonl", "constant:b", false, 0, false, 0, 1, 0, false, nil); err != nil {
		t.Fatal(err)
	}
}

// TestRunEmitsWideEvent covers -events-out: one JSONL wide event per
// invocation, success or failure, appended in order.
func TestRunEmitsWideEvent(t *testing.T) {
	path := writeTestTrace(t, false)
	out := filepath.Join(t.TempDir(), "events.jsonl")

	j := wideevent.NewJournal(wideevent.Options{Capacity: 1, SampleRate: 1})
	evb := j.Begin("run-ok", "dreval")
	runErr := run(path, "csv", "constant:c", false, 0, false, 25, 1, 4, false, evb)
	if err := writeRunEvent(j, evb, out, runErr); err != nil {
		t.Fatal(err)
	}

	j = wideevent.NewJournal(wideevent.Options{Capacity: 1, SampleRate: 1})
	evb = j.Begin("run-bad", "dreval")
	runErr = run(path, "csv", "wat", false, 0, false, 0, 1, 0, false, evb)
	if runErr == nil {
		t.Fatal("expected policy error")
	}
	if err := writeRunEvent(j, evb, out, runErr); err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d JSONL lines, want 2:\n%s", len(lines), raw)
	}
	var ok, bad wideevent.Event
	if err := json.Unmarshal([]byte(lines[0]), &ok); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(lines[1]), &bad); err != nil {
		t.Fatal(err)
	}
	if ok.RequestID != "run-ok" || ok.Route != "dreval" || ok.Status != 200 || ok.Policy != "constant:c" {
		t.Fatalf("success event = %+v", ok)
	}
	if ok.ESSRatio <= 0 || ok.BiasGrade == "" || ok.BootstrapResamples != 25 {
		t.Fatalf("success event missing regime fields: %+v", ok)
	}
	for _, phase := range []string{"read_trace", "estimate", "bias_observatory", "bootstrap"} {
		if _, present := ok.PhaseMs[phase]; !present {
			t.Fatalf("success event phaseMs missing %q: %v", phase, ok.PhaseMs)
		}
	}
	if bad.RequestID != "run-bad" || bad.Status != 500 || bad.Error == "" {
		t.Fatalf("failure event = %+v", bad)
	}
}

// TestRunBootstrapIsDrevaldInterval: dreval -bootstrap runs
// core.BootstrapDRViewSeeded over the trace interned by
// FlatContext.Key — the call behind drevald's drInterval — so the same
// trace, policy, options and seed print drevald's interval.
func TestRunBootstrapIsDrevaldInterval(t *testing.T) {
	path := writeTestTrace(t, false)
	out := captureStdout(t, func() error {
		return run(path, "csv", "best-observed", false, 10, true, 80, 9, 0, false, nil)
	})
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ft, err := traceio.ReadCSV(f)
	if err != nil {
		t.Fatal(err)
	}
	trace := traceio.ToCore(ft)
	view, err := core.NewTraceViewKeyed(trace, traceio.FlatContext.Key)
	if err != nil {
		t.Fatal(err)
	}
	policy, err := traceio.ParsePolicy("best-observed", trace)
	if err != nil {
		t.Fatal(err)
	}
	ci, err := core.BootstrapDRViewSeeded(view, policy, core.DROptions{Clip: 10, SelfNormalize: true}, 9, 80, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("DR 95%% bootstrap CI: [%.4f, %.4f]", ci.Lo, ci.Hi); !strings.Contains(out, want) {
		t.Fatalf("output lacks %q:\n%s", want, out)
	}
}
