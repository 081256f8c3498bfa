package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"drnet/internal/benchkit"
)

// tinyArgs keeps CLI tests fast: the smallest config that still
// exercises ≥3 sizes × 2 worker counts × every estimator.
func tinyArgs(outDir string, extra ...string) []string {
	args := []string{
		"-sizes", "50,100,200",
		"-workers", "1,2",
		"-iters", "2",
		"-bootstrap", "5",
		"-out", outDir,
		"-baseline", "",
	}
	return append(args, extra...)
}

func benchReports(t *testing.T, dir string) []string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil {
		t.Fatal(err)
	}
	return matches
}

func TestRunWritesVersionedReport(t *testing.T) {
	dir := t.TempDir()
	var out, errOut bytes.Buffer
	if code := run(tinyArgs(dir), &out, &errOut); code != 0 {
		t.Fatalf("exit %d\nstdout: %s\nstderr: %s", code, out.String(), errOut.String())
	}
	files := benchReports(t, dir)
	if len(files) != 1 {
		t.Fatalf("found %d BENCH_*.json files, want 1: %v", len(files), files)
	}
	rep, err := benchkit.ReadReport(files[0])
	if err != nil {
		t.Fatal(err)
	}
	if rep.SchemaVersion != benchkit.SchemaVersion || rep.Timestamp == "" || rep.Version == "" {
		t.Fatalf("report header incomplete: %+v", rep)
	}
	// The acceptance shape: per-workload cells (4 estimators plus the
	// dr events on/off pair) at >= 3 sizes × >= 2 worker counts, each
	// with throughput and the latency percentiles.
	if got, want := len(rep.Cells), 3*2*6; got != want {
		t.Fatalf("%d cells, want %d", got, want)
	}
	for _, c := range rep.Cells {
		if c.OpsPerSec <= 0 {
			t.Fatalf("cell %s throughput %g", c.Key(), c.OpsPerSec)
		}
		if c.P50Ms <= 0 || c.P95Ms < c.P50Ms || c.P99Ms < c.P95Ms {
			t.Fatalf("cell %s percentiles p50=%g p95=%g p99=%g", c.Key(), c.P50Ms, c.P95Ms, c.P99Ms)
		}
	}
	if !strings.Contains(out.String(), "report written to ") {
		t.Fatalf("stdout missing confirmation: %s", out.String())
	}
}

func TestRunBaselineDiffWarnVsStrict(t *testing.T) {
	dir := t.TempDir()
	var out, errOut bytes.Buffer

	// First run becomes the baseline.
	if code := run(tinyArgs(dir), &out, &errOut); code != 0 {
		t.Fatalf("baseline run failed: %s", errOut.String())
	}
	basePath := benchReports(t, dir)[0]

	// Doctor the baseline so every cell looks 100x faster and leaner
	// than reality: the next run must flag regressions.
	base, err := benchkit.ReadReport(basePath)
	if err != nil {
		t.Fatal(err)
	}
	for i := range base.Cells {
		base.Cells[i].OpsPerSec *= 100
		base.Cells[i].P95Ms /= 100
		base.Cells[i].AllocsPerOp /= 100
	}
	doctored := filepath.Join(dir, "baseline.json")
	if err := benchkit.WriteReport(doctored, base); err != nil {
		t.Fatal(err)
	}

	// Warn-only (default): regressions print but exit 0.
	out.Reset()
	errOut.Reset()
	warnDir := t.TempDir()
	if code := run(tinyArgs(warnDir, "-baseline", doctored), &out, &errOut); code != 0 {
		t.Fatalf("warn-only run exited %d\nstderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "REGRESSION") || !strings.Contains(out.String(), "warn-only") {
		t.Fatalf("warn-only output missing regression report:\n%s", out.String())
	}

	// Strict: same diff fails the run.
	out.Reset()
	errOut.Reset()
	strictDir := t.TempDir()
	if code := run(tinyArgs(strictDir, "-baseline", doctored, "-strict"), &out, &errOut); code != 1 {
		t.Fatalf("strict run exited %d, want 1\nstdout: %s", code, out.String())
	}

	// A clean baseline (the run's own numbers) passes strict mode. The
	// tiny 2-iteration cells jitter far more than a real run, so give
	// this leg generous thresholds — it checks the pass path, not noise.
	out.Reset()
	errOut.Reset()
	cleanDir := t.TempDir()
	clean := tinyArgs(cleanDir, "-baseline", basePath, "-strict",
		"-max-throughput-drop", "0.99",
		"-max-latency-growth", "20",
		"-max-alloc-growth", "5")
	if code := run(clean, &out, &errOut); code != 0 {
		t.Fatalf("strict run against honest baseline exited %d\nstdout: %s\nstderr: %s",
			code, out.String(), errOut.String())
	}
}

func TestRunWritesProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "heap.pprof")
	var out, errOut bytes.Buffer
	args := tinyArgs(dir, "-cpuprofile", cpu, "-memprofile", mem)
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile %s missing: %v", p, err)
		}
		if st.Size() == 0 {
			t.Fatalf("profile %s is empty", p)
		}
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-sizes", "abc"}, &out, &errOut); code != 1 {
		t.Fatalf("bad -sizes accepted (exit %d)", code)
	}
	if code := run([]string{"-workers", "0"}, &out, &errOut); code != 1 {
		t.Fatalf("zero worker count accepted (exit %d)", code)
	}
}
