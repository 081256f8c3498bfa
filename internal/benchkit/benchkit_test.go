package benchkit

import (
	"path/filepath"
	"reflect"
	"testing"

	"drnet/internal/traceio"
)

func TestSyntheticTraceDeterministicAndValid(t *testing.T) {
	a := SyntheticTrace(500, 7)
	b := SyntheticTrace(500, 7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("identical (n, seed) produced different traces")
	}
	c := SyntheticTrace(500, 8)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical traces")
	}
	trace := traceio.ToCore(traceio.FlatTrace{Records: a})
	if err := trace.Validate(); err != nil {
		t.Fatalf("synthetic trace invalid: %v", err)
	}
	// Every decision must appear, so best-observed and the table model
	// have full support.
	counts := trace.DecisionCounts()
	for _, d := range decisions {
		if counts[d] == 0 {
			t.Fatalf("decision %q absent from synthetic trace", d)
		}
	}
}

func TestPercentile(t *testing.T) {
	vals := []float64{5, 1, 4, 2, 3}
	if got := Percentile(vals, 0.5); got != 3 {
		t.Fatalf("p50 = %g, want 3", got)
	}
	if got := Percentile(vals, 0.99); got != 5 {
		t.Fatalf("p99 = %g, want 5", got)
	}
	if got := Percentile(nil, 0.5); got != 0 {
		t.Fatalf("empty percentile = %g, want 0", got)
	}
	if vals[0] != 5 {
		t.Fatal("Percentile mutated its input")
	}
}

func TestRunProducesEveryCell(t *testing.T) {
	cfg := Config{
		Sizes:              []int{50, 100, 200},
		Workers:            []int{1, 2},
		Estimators:         []string{"dm", "ips", "dr", "bootstrap"},
		Iters:              2,
		BootstrapResamples: 5,
		Seed:               1,
	}
	rep, err := Run(cfg, "test-version", nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.SchemaVersion != SchemaVersion || rep.Version != "test-version" {
		t.Fatalf("report header: %+v", rep)
	}
	want := len(cfg.Sizes) * len(cfg.Workers) * len(cfg.Estimators)
	if len(rep.Cells) != want {
		t.Fatalf("got %d cells, want %d", len(rep.Cells), want)
	}
	seen := map[string]bool{}
	for _, c := range rep.Cells {
		seen[c.Key()] = true
		if c.OpsPerSec <= 0 {
			t.Fatalf("cell %s has non-positive throughput", c.Key())
		}
		if c.P50Ms < 0 || c.P50Ms > c.P95Ms || c.P95Ms > c.P99Ms {
			t.Fatalf("cell %s percentiles out of order: p50=%g p95=%g p99=%g",
				c.Key(), c.P50Ms, c.P95Ms, c.P99Ms)
		}
		if c.PeakHeapBytes == 0 {
			t.Fatalf("cell %s has zero peak heap", c.Key())
		}
	}
	for _, w := range cfg.Workers {
		for _, s := range cfg.Sizes {
			for _, e := range cfg.Estimators {
				key := Cell{Estimator: e, Size: s, Workers: w}.Key()
				if !seen[key] {
					t.Fatalf("missing cell %s", key)
				}
			}
		}
	}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("DefaultConfig invalid: %v", err)
	}
	if err := QuickConfig().Validate(); err != nil {
		t.Fatalf("QuickConfig invalid: %v", err)
	}
	bad := DefaultConfig()
	bad.Estimators = []string{"nope"}
	if err := bad.Validate(); err == nil {
		t.Fatal("unknown estimator accepted")
	}
	bad = DefaultConfig()
	bad.Iters = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero iters accepted")
	}
}

func TestDiffFlagsRegressionsAndSkipsNewCells(t *testing.T) {
	base := &Report{SchemaVersion: SchemaVersion}
	base.Cells = []CellResult{{
		Cell:    Cell{Estimator: "dr", Size: 1000, Workers: 1},
		Metrics: Metrics{OpsPerSec: 100, P95Ms: 10, AllocsPerOp: 1000},
	}}
	th := Thresholds{MaxThroughputDrop: 0.3, MaxLatencyGrowth: 0.5, MaxAllocGrowth: 0.25}

	// Identical report: clean.
	if regs := Diff(base, base, th); len(regs) != 0 {
		t.Fatalf("identical reports flagged: %v", regs)
	}

	// All three metrics regressed past their thresholds.
	cur := &Report{SchemaVersion: SchemaVersion}
	cur.Cells = []CellResult{
		{
			Cell:    Cell{Estimator: "dr", Size: 1000, Workers: 1},
			Metrics: Metrics{OpsPerSec: 50, P95Ms: 20, AllocsPerOp: 2000},
		},
		{
			// A cell absent from the baseline must not be flagged.
			Cell:    Cell{Estimator: "ips", Size: 1000, Workers: 1},
			Metrics: Metrics{OpsPerSec: 1, P95Ms: 1000, AllocsPerOp: 1e9},
		},
	}
	regs := Diff(cur, base, th)
	if len(regs) != 3 {
		t.Fatalf("got %d regressions, want 3: %v", len(regs), regs)
	}
	metrics := map[string]bool{}
	for _, r := range regs {
		if r.CellKey != "dr/n=1000/w=1" {
			t.Fatalf("unexpected cell %q", r.CellKey)
		}
		metrics[r.Metric] = true
		if r.ChangeFrac <= 0 {
			t.Fatalf("regression with non-positive change: %+v", r)
		}
	}
	for _, m := range []string{"opsPerSec", "p95Ms", "allocsPerOp"} {
		if !metrics[m] {
			t.Fatalf("metric %s not flagged: %v", m, regs)
		}
	}

	// Small drifts inside the thresholds stay clean.
	cur.Cells[0].Metrics = Metrics{OpsPerSec: 90, P95Ms: 11, AllocsPerOp: 1100}
	if regs := Diff(cur, base, th); len(regs) != 0 {
		t.Fatalf("in-threshold drift flagged: %v", regs)
	}
	if regs := Diff(cur, nil, th); regs != nil {
		t.Fatalf("nil baseline produced regressions: %v", regs)
	}
}

func TestDiffMinReliableP50GatesTimingOnly(t *testing.T) {
	base := &Report{SchemaVersion: SchemaVersion}
	base.Cells = []CellResult{{
		Cell:    Cell{Estimator: "ips", Size: 500, Workers: 1},
		Metrics: Metrics{OpsPerSec: 100000, P50Ms: 0.01, P95Ms: 0.02, AllocsPerOp: 100},
	}}
	cur := &Report{SchemaVersion: SchemaVersion}
	cur.Cells = []CellResult{{
		// Timing "regressed" 2× but both p50s sit under the gate;
		// allocs regressed too, and those must still be flagged.
		Cell:    Cell{Estimator: "ips", Size: 500, Workers: 1},
		Metrics: Metrics{OpsPerSec: 50000, P50Ms: 0.02, P95Ms: 0.04, AllocsPerOp: 200},
	}}
	th := Thresholds{MaxThroughputDrop: 0.3, MaxLatencyGrowth: 0.5, MaxAllocGrowth: 0.25, MinReliableP50Ms: 0.05}
	regs := Diff(cur, base, th)
	if len(regs) != 1 || regs[0].Metric != "allocsPerOp" {
		t.Fatalf("gated diff = %v, want exactly the allocsPerOp regression", regs)
	}
	// Once either side's p50 clears the gate, timing checks apply.
	cur.Cells[0].P50Ms = 0.06
	regs = Diff(cur, base, th)
	metrics := map[string]bool{}
	for _, r := range regs {
		metrics[r.Metric] = true
	}
	if !metrics["opsPerSec"] || !metrics["p95Ms"] || !metrics["allocsPerOp"] {
		t.Fatalf("ungated diff missing metrics: %v", regs)
	}
	// Zero disables the gate entirely.
	cur.Cells[0].P50Ms = 0.02
	th.MinReliableP50Ms = 0
	if regs := Diff(cur, base, th); len(regs) != 3 {
		t.Fatalf("disabled gate: got %v, want 3 regressions", regs)
	}
}

func TestReportRoundTripAndSchemaGuard(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_test.json")
	rep := &Report{SchemaVersion: SchemaVersion, Version: "v", Timestamp: "2026-08-05T00:00:00Z"}
	rep.Cells = []CellResult{{Cell: Cell{Estimator: "dm", Size: 100, Workers: 1}, Iters: 3}}
	if err := WriteReport(path, rep); err != nil {
		t.Fatal(err)
	}
	got, err := ReadReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, rep) {
		t.Fatalf("round trip mismatch:\n%+v\n%+v", got, rep)
	}
	rep.SchemaVersion = SchemaVersion + 1
	if err := WriteReport(path, rep); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadReport(path); err == nil {
		t.Fatal("unknown schema version accepted")
	}
}

// TestEventsOverheadCells checks the dr_events_on/off pair runs and
// that the on-cell really commits an event per iteration (the off
// cell's nil journal commits none, by construction).
func TestEventsOverheadCells(t *testing.T) {
	rep, err := Run(Config{
		Sizes:              []int{200},
		Workers:            []int{1},
		Estimators:         []string{"dr_events_on", "dr_events_off"},
		Iters:              3,
		BootstrapResamples: 5,
		Seed:               1,
	}, "test", nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"dr_events_on/n=200/w=1", "dr_events_off/n=200/w=1"} {
		cell := rep.FindCell(key)
		if cell == nil || cell.OpsPerSec <= 0 {
			t.Fatalf("cell %s missing or unmeasured: %+v", key, cell)
		}
	}
}
