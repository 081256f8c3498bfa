// Package benchkit is the repository's standardized performance
// harness: it runs the core estimators (DM, IPS, DR) and the seeded
// bootstrap over deterministic synthetic workloads at several trace
// sizes and worker-pool widths, measures throughput, latency
// percentiles, allocations and peak heap, and writes a versioned JSON
// report (BENCH_<timestamp>.json) that can be diffed against a
// checked-in baseline with per-metric regression thresholds.
//
// The point — following the paper's §4.1 argument that OPE numbers are
// only trustworthy alongside diagnostics — is that performance claims
// are only trustworthy alongside a recorded trajectory: every perf PR
// appends a report produced by the same workloads, so "made the hot
// path faster" is a diff against bench/baseline.json, not an anecdote.
package benchkit

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"drnet/internal/parallel"
)

// SchemaVersion identifies the report layout; bump it when fields
// change incompatibly so trajectory tooling can tell reports apart.
const SchemaVersion = 1

// Config selects what Run measures.
type Config struct {
	// Sizes are the synthetic trace lengths to measure (records).
	Sizes []int `json:"sizes"`
	// Workers are the worker-pool widths to measure at.
	Workers []int `json:"workers"`
	// Estimators are the workload names: "dm", "ips", "dr" and
	// "bootstrap" run the estimators drevald serves; "dr_events_on" and
	// "dr_events_off" price the wide-event journal around DR.
	Estimators []string `json:"estimators"`
	// Iters is the number of measured iterations per cell.
	Iters int `json:"iters"`
	// BootstrapResamples sizes the bootstrap workload.
	BootstrapResamples int `json:"bootstrapResamples"`
	// Seed drives the synthetic workload generator; identical seeds
	// yield identical traces, so reports are comparable across runs.
	Seed int64 `json:"seed"`
}

// DefaultConfig is the full standardized workload: three trace sizes
// spanning the sequential and parallel estimator regimes, three pool
// widths, every estimator.
func DefaultConfig() Config {
	return Config{
		Sizes:              []int{1000, 10000, 50000},
		Workers:            []int{1, 2, 8},
		Estimators:         []string{"dm", "ips", "dr", "bootstrap", "dr_events_on", "dr_events_off"},
		Iters:              20,
		BootstrapResamples: 100,
		Seed:               1,
	}
}

// QuickConfig is the CI smoke variant: same shape (≥3 sizes × ≥2
// worker counts × all estimators) but small enough to finish in
// seconds on a noisy runner.
func QuickConfig() Config {
	return Config{
		Sizes:              []int{500, 2000, 8000},
		Workers:            []int{1, 2},
		Estimators:         []string{"dm", "ips", "dr", "bootstrap", "dr_events_on", "dr_events_off"},
		Iters:              10,
		BootstrapResamples: 20,
		Seed:               1,
	}
}

// Validate rejects configs Run cannot execute.
func (c Config) Validate() error {
	if len(c.Sizes) == 0 || len(c.Workers) == 0 || len(c.Estimators) == 0 {
		return fmt.Errorf("benchkit: config needs at least one size, worker count and estimator")
	}
	for _, s := range c.Sizes {
		if s < 10 {
			return fmt.Errorf("benchkit: trace size %d too small (want >= 10)", s)
		}
	}
	for _, w := range c.Workers {
		if w < 1 {
			return fmt.Errorf("benchkit: worker count %d must be >= 1", w)
		}
	}
	for _, e := range c.Estimators {
		if _, ok := workloads[e]; !ok {
			return fmt.Errorf("benchkit: unknown estimator %q (want dm, ips, dr, bootstrap, or dr_events_on/off)", e)
		}
	}
	if c.Iters < 1 {
		return fmt.Errorf("benchkit: iters %d must be >= 1", c.Iters)
	}
	if c.BootstrapResamples < 1 {
		return fmt.Errorf("benchkit: bootstrapResamples %d must be >= 1", c.BootstrapResamples)
	}
	return nil
}

// Metrics is one cell's measurement.
type Metrics struct {
	// OpsPerSec is iterations per wall-clock second.
	OpsPerSec float64 `json:"opsPerSec"`
	// P50Ms, P95Ms, P99Ms are latency percentiles in milliseconds
	// (nearest-rank over the measured iterations).
	P50Ms float64 `json:"p50Ms"`
	P95Ms float64 `json:"p95Ms"`
	P99Ms float64 `json:"p99Ms"`
	// AllocsPerOp is the heap-allocation count per iteration
	// (runtime.MemStats.Mallocs delta / iters).
	AllocsPerOp float64 `json:"allocsPerOp"`
	// BytesPerOp is cumulative allocated bytes per iteration.
	BytesPerOp float64 `json:"bytesPerOp"`
	// PeakHeapBytes is the largest HeapAlloc sampled during the cell.
	PeakHeapBytes uint64 `json:"peakHeapBytes"`
}

// Cell identifies one measured workload combination.
type Cell struct {
	Estimator string `json:"estimator"`
	Size      int    `json:"size"`
	Workers   int    `json:"workers"`
}

// Key renders the cell identity used to match baseline entries.
func (c Cell) Key() string {
	return fmt.Sprintf("%s/n=%d/w=%d", c.Estimator, c.Size, c.Workers)
}

// CellResult is one cell plus its measurement.
type CellResult struct {
	Cell
	Iters int `json:"iters"`
	Metrics
}

// Report is the full output of one harness run — the unit of the
// repository's perf trajectory. Reports are written as
// BENCH_<timestamp>.json and diffed against bench/baseline.json.
type Report struct {
	SchemaVersion int    `json:"schemaVersion"`
	Version       string `json:"version"`
	Timestamp     string `json:"timestamp"`
	GoVersion     string `json:"goVersion"`
	GOOS          string `json:"goos"`
	GOARCH        string `json:"goarch"`
	GOMAXPROCS    int    `json:"gomaxprocs"`
	Config        Config `json:"config"`
	// WallSeconds is the harness's total measurement wall time.
	WallSeconds float64      `json:"wallSeconds"`
	Cells       []CellResult `json:"cells"`
	// HTTP is the loadgen leg against a live drevald, present when one
	// was requested.
	HTTP *HTTPResult `json:"http,omitempty"`
	// Ingest is the streaming-ingestion leg (durable-ack throughput and
	// the O(1) evaluation flatness probe), present when one was
	// requested. Consumers must nil-guard: most runs have no WAL server.
	Ingest *IngestResult `json:"ingest,omitempty"`
}

// FindCell returns the result for a cell key, or nil.
func (r *Report) FindCell(key string) *CellResult {
	for i := range r.Cells {
		if r.Cells[i].Key() == key {
			return &r.Cells[i]
		}
	}
	return nil
}

// Logf is the progress callback Run reports through; nil silences it.
type Logf func(format string, args ...any)

// Run executes every (estimator × size × workers) cell of cfg and
// returns the report. version stamps the report (pass
// obs.Version()); logf receives one line per cell. The worker-pool
// default width is mutated per cell and restored before returning.
func Run(cfg Config, version string, logf Logf) (*Report, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if logf == nil {
		logf = func(string, ...any) {}
	}
	rep := &Report{
		SchemaVersion: SchemaVersion,
		Version:       version,
		GoVersion:     runtime.Version(),
		GOOS:          runtime.GOOS,
		GOARCH:        runtime.GOARCH,
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		Config:        cfg,
	}
	prevWorkers := parallel.DefaultWorkers()
	defer parallel.SetDefaultWorkers(prevWorkers)

	start := time.Now()
	for _, w := range cfg.Workers {
		parallel.SetDefaultWorkers(w)
		for _, size := range cfg.Sizes {
			wl := newWorkloadData(size, cfg.Seed)
			for _, est := range cfg.Estimators {
				fn := workloads[est](wl, cfg)
				m, err := measure(cfg.Iters, fn)
				if err != nil {
					return nil, fmt.Errorf("benchkit: %s (n=%d, workers=%d): %w", est, size, w, err)
				}
				cell := CellResult{
					Cell:    Cell{Estimator: est, Size: size, Workers: w},
					Iters:   cfg.Iters,
					Metrics: m,
				}
				rep.Cells = append(rep.Cells, cell)
				logf("cell %-22s ops/s=%-10.1f p50=%.2fms p95=%.2fms p99=%.2fms allocs/op=%.0f",
					cell.Key(), m.OpsPerSec, m.P50Ms, m.P95Ms, m.P99Ms, m.AllocsPerOp)
			}
		}
	}
	rep.WallSeconds = time.Since(start).Seconds()
	return rep, nil
}

// measure times iters sequential invocations of fn: a warmup pass, then
// per-iteration latencies, MemStats deltas for allocs, and periodic
// heap sampling for the peak.
func measure(iters int, fn func() error) (Metrics, error) {
	if err := fn(); err != nil { // warmup, also surfaces workload errors
		return Metrics{}, err
	}
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	peak := before.HeapAlloc

	// Sample the heap a bounded number of times — ReadMemStats briefly
	// stops the world, so sampling every iteration would perturb the
	// latencies it sits next to.
	sampleEvery := iters / 8
	if sampleEvery < 1 {
		sampleEvery = 1
	}
	lat := make([]float64, iters)
	start := time.Now()
	for i := 0; i < iters; i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return Metrics{}, err
		}
		lat[i] = time.Since(t0).Seconds()
		if (i+1)%sampleEvery == 0 {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			if ms.HeapAlloc > peak {
				peak = ms.HeapAlloc
			}
		}
	}
	wall := time.Since(start).Seconds()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	if after.HeapAlloc > peak {
		peak = after.HeapAlloc
	}

	m := Metrics{
		P50Ms:         Percentile(lat, 0.50) * 1000,
		P95Ms:         Percentile(lat, 0.95) * 1000,
		P99Ms:         Percentile(lat, 0.99) * 1000,
		AllocsPerOp:   float64(after.Mallocs-before.Mallocs) / float64(iters),
		BytesPerOp:    float64(after.TotalAlloc-before.TotalAlloc) / float64(iters),
		PeakHeapBytes: peak,
	}
	if wall > 0 {
		m.OpsPerSec = float64(iters) / wall
	}
	return m, nil
}

// Percentile returns the nearest-rank p-th percentile (0 < p <= 1) of
// values; it does not mutate its argument.
func Percentile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return 0
	}
	sorted := make([]float64, len(values))
	copy(sorted, values)
	sort.Float64s(sorted)
	rank := int(p*float64(len(sorted))+0.5) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}
