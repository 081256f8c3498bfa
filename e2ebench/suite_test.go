package main

import (
	"encoding/json"
	"os"
	"slices"
	"strings"
	"testing"
)

// uniformReport has every metric of every workload at 100.
func uniformReport(bounds []bound) *suiteReport {
	rep := &suiteReport{GOMAXPROCS: 2, NProc: 2, Workloads: map[string]map[string]suiteStat{}}
	for _, w := range workloads {
		m := map[string]suiteStat{}
		for _, b := range bounds {
			m[b.Name] = suiteStat{Unit: b.Unit, Median: 100}
		}
		rep.Workloads[w.name] = m
	}
	return rep
}

func benchmarkBounds(t *testing.T) []bound {
	t.Helper()
	bounds, err := readBounds("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return bounds
}

// A baseline doctored to be better than the current report on one
// metric, by twice that metric's bound, must trip exactly that metric
// on every workload, and nothing else.
func TestDiffTripsEachMetric(t *testing.T) {
	bounds := benchmarkBounds(t)
	cur := uniformReport(bounds)
	for _, b := range bounds {
		base := uniformReport(bounds)
		doctored := 100 / (1 + 2*b.Bound)
		if b.Better == "higher" {
			doctored = 100 * (1 + 2*b.Bound)
		}
		for _, m := range base.Workloads {
			m[b.Name] = suiteStat{Unit: b.Unit, Median: doctored}
		}
		regs, err := diff(cur, base, bounds)
		if err != nil {
			t.Fatal(err)
		}
		if len(regs) != len(workloads) {
			t.Fatalf("%s: %d regressions, want one per workload: %v", b.Name, len(regs), regs)
		}
		for _, r := range regs {
			if r.Metric != b.Name {
				t.Errorf("%s doctored, but %s tripped", b.Name, r)
			}
		}
	}
}

func TestDiffPassesChangesWithinBounds(t *testing.T) {
	bounds := benchmarkBounds(t)
	cur := uniformReport(bounds)
	base := uniformReport(bounds)
	for _, b := range bounds {
		for _, m := range base.Workloads {
			// Half a bound better at baseline: the current report is
			// worse, but not by more than the bound allows.
			v := 100 / (1 + b.Bound/2)
			if b.Better == "higher" {
				v = 100 * (1 + b.Bound/2)
			}
			m[b.Name] = suiteStat{Median: v}
		}
	}
	regs, err := diff(cur, base, bounds)
	if err != nil || len(regs) != 0 {
		t.Fatalf("regressions %v, error %v; want none", regs, err)
	}
}

func TestDiffRefusesOtherMachinesAndMissingMetrics(t *testing.T) {
	bounds := benchmarkBounds(t)
	base := uniformReport(bounds)
	for _, tamper := range []func(*suiteReport){
		func(r *suiteReport) { r.GOMAXPROCS = 1 },
		func(r *suiteReport) { r.NProc = 4 },
	} {
		cur := uniformReport(bounds)
		tamper(cur)
		if _, err := diff(cur, base, bounds); err == nil || !strings.Contains(err.Error(), "refusing") {
			t.Errorf("diff across machines: error %v, want a refusal", err)
		}
	}
	cur := uniformReport(bounds)
	delete(cur.Workloads["replay"], "setup_s")
	if _, err := diff(cur, base, bounds); err == nil {
		t.Error("a metric missing from the report passed")
	}
}

// The per_layer list in BENCHMARK.json must name exactly the metrics a
// traced run prints.
func TestPerLayerListMatchesTheLedger(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	want := []string{}
	for _, l := range layers {
		want = append(want, l+".ms_per_op", l+".share", l+".allocs_per_op", l+".calls")
	}
	want = append(want, "unattributed_ms", "span_overhead_frac", "reader_lag_p95_ms", "latency_p95_ms")
	var got []string
	for _, m := range doc.PerLayer {
		got = append(got, m.Name)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("BENCHMARK.json per_layer:\n%v\nledger:\n%v", got, want)
	}
}

func TestBoundsCoverEveryEndToEndMetric(t *testing.T) {
	bounds := benchmarkBounds(t)
	m := (&outcome{}).endToEnd()
	if len(m) != len(bounds) {
		t.Fatalf("runs report %d end-to-end metrics, BENCHMARK.json bounds %d", len(m), len(bounds))
	}
	for _, b := range bounds {
		if got, ok := m[b.Name]; !ok || got.Unit != b.Unit {
			t.Errorf("%s: reported as %+v, BENCHMARK.json says unit %s", b.Name, got, b.Unit)
		}
	}
}
