package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"drnet/internal/obs"
)

// TestMain silences phase-timing logs during tests unless -v is set.
func TestMain(m *testing.M) {
	flag.Parse()
	if !testing.Verbose() {
		expLog = obs.NewLogger(io.Discard, slog.LevelInfo)
	}
	os.Exit(m.Run())
}

func TestRunSingleExperiment(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "E1", 2, 1, 1); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "E1 — Second-order bias") {
		t.Fatalf("missing E1 header:\n%s", out)
	}
	if strings.Contains(out, "F7a") {
		t.Fatal("unselected experiment was run")
	}
}

func TestRunMultipleAndCaseInsensitive(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "e1, E9", 2, 1, 4); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"E1 —", "E9 —"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q:\n%s", want, out)
		}
	}
	// Parallel output preserves declaration order: E1 before E9.
	if strings.Index(out, "E1 —") > strings.Index(out, "E9 —") {
		t.Fatal("results out of order under -parallel")
	}
}

func TestRunUnknownID(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "ZZZ", 1, 1, 1); err == nil {
		t.Fatal("expected error for unknown experiment id")
	}
}

// TestRunManifest checks the manifest records configuration and one
// timed entry per selected experiment, in declaration order, and that
// it round-trips through writeManifest as valid JSON.
func TestRunManifest(t *testing.T) {
	var buf bytes.Buffer
	m, err := runAll(context.Background(), &buf, "E1,E9", 2, 42, 2)
	if err != nil {
		t.Fatal(err)
	}
	if m.Seed != 42 || m.Runs != 2 || m.Parallel != 2 {
		t.Fatalf("manifest config %+v", m)
	}
	if m.Workers < 1 {
		t.Fatalf("manifest workers = %d", m.Workers)
	}
	if m.Version == "" {
		t.Fatal("manifest missing version")
	}
	if len(m.Experiments) != 2 || m.Experiments[0].ID != "E1" || m.Experiments[1].ID != "E9" {
		t.Fatalf("manifest entries %+v", m.Experiments)
	}
	for _, e := range m.Experiments {
		if e.WallSeconds <= 0 {
			t.Fatalf("experiment %s has no wall time", e.ID)
		}
		// The memory fields come from MemStats deltas: every experiment
		// allocates, and the heap is never empty while one runs.
		if e.PeakHeapBytes == 0 {
			t.Fatalf("experiment %s has zero peak heap", e.ID)
		}
		if e.Allocs == 0 {
			t.Fatalf("experiment %s recorded zero allocations", e.ID)
		}
	}
	if m.WallSeconds < m.Experiments[0].WallSeconds && m.Parallel == 1 {
		t.Fatalf("total wall %g below a phase's", m.WallSeconds)
	}

	path := filepath.Join(t.TempDir(), "manifest.json")
	if err := writeManifest(path, m); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got runManifest
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatalf("manifest not valid JSON: %v", err)
	}
	if got.Seed != 42 || len(got.Experiments) != 2 {
		t.Fatalf("round-tripped manifest %+v", got)
	}
}

// TestManifestCarriesTraceHealth: the Figure 7 experiments attach their
// run-0 bias-observatory summary, and it survives the JSON round trip
// under the traceHealth key.
func TestManifestCarriesTraceHealth(t *testing.T) {
	var buf bytes.Buffer
	m, err := runAll(context.Background(), &buf, "F7b", 2, 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Experiments) != 1 {
		t.Fatalf("manifest entries %+v", m.Experiments)
	}
	th := m.Experiments[0].TraceHealth
	if th == nil || th.Grade == "" || th.Windows == 0 {
		t.Fatalf("manifest traceHealth = %+v", th)
	}
	// The wide event mirrors the entry and shares the trace-health
	// grade, and the run-level SLO rollup classifies it.
	ev := m.Experiments[0].Event
	if ev == nil || ev.RequestID != "F7b" || ev.Route != "experiment" || ev.Status != 200 {
		t.Fatalf("manifest event = %+v", ev)
	}
	if ev.BiasGrade != th.Grade || ev.DurationMs <= 0 {
		t.Fatalf("manifest event fields = %+v", ev)
	}
	drift := false
	for _, c := range m.SLO {
		if c.Name == "drift-free" {
			drift = true
			if c.Total != 1 {
				t.Fatalf("drift-free compliance = %+v, want the experiment in scope", c)
			}
		}
	}
	if !drift {
		t.Fatalf("manifest SLO rollup missing drift-free objective: %+v", m.SLO)
	}
	b, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(b, []byte(`"traceHealth"`)) || !bytes.Contains(b, []byte(`"grade"`)) {
		t.Fatalf("serialized manifest missing traceHealth block:\n%s", b)
	}
	if !bytes.Contains(b, []byte(`"slo"`)) || !bytes.Contains(b, []byte(`"event"`)) {
		t.Fatalf("serialized manifest missing slo/event blocks:\n%s", b)
	}
}

// TestRunAllInterrupted: a context cancelled before any experiment
// starts skips every job and surfaces as an "interrupted" error, so an
// operator's Ctrl-C never produces a silently truncated results table.
func TestRunAllInterrupted(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var buf bytes.Buffer
	_, err := runAll(ctx, &buf, "E1,E9", 2, 1, 1)
	if err == nil || !strings.Contains(err.Error(), "interrupted") {
		t.Fatalf("err = %v, want interrupted", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("cancelled run still rendered results: %q", buf.String())
	}
}
