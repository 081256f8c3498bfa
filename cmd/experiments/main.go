// Command experiments regenerates every table and figure of the
// reproduction: the paper's Figure 7 panels (F7a, F7b, F7c) and the
// extension experiments E1–E9 described in DESIGN.md.
//
// Usage:
//
//	experiments [-run all|F7a,F7b,...] [-runs 50] [-seed 1] [-workers 0]
//	            [-manifest run-manifest.json]
//
// -workers sets the width of the shared worker pool the Monte Carlo
// replication loops run on (0 = GOMAXPROCS). Results are bit-identical
// at every worker count: -workers 8 reproduces exactly the numbers of
// -workers 1.
//
// After the run a JSON manifest is written to -manifest ("" disables)
// recording the seed, worker count, per-experiment wall times and
// memory footprint (sampled peak heap, GC cycles, allocations — see
// manifestEntry for the -parallel caveat) and the binary's version, so
// a results table can always be traced back to the exact configuration
// that produced it. Phase timings are also logged to stderr as
// structured key=value lines.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"drnet/internal/biasobs"
	"drnet/internal/experiments"
	"drnet/internal/obs"
	"drnet/internal/parallel"
	"drnet/internal/slo"
	"drnet/internal/wideevent"
)

type runner func(runs int, seed int64) (experiments.Result, error)

// expLog emits phase timings; tests replace it with one over io.Discard.
var expLog = obs.NewLogger(os.Stderr, slog.LevelInfo)

func main() {
	var (
		which      = flag.String("run", "all", "comma-separated experiment ids (F7a F7b F7c E1..E12 ABL) or 'all'")
		runs       = flag.Int("runs", 50, "independent runs per experiment (the paper uses 50)")
		seed       = flag.Int64("seed", 1, "base RNG seed")
		concurrent = flag.Int("parallel", 1, "experiments to run concurrently (results print in order)")
		workers    = flag.Int("workers", 0, "worker-pool width for Monte Carlo runs within an experiment (0 = GOMAXPROCS; results are identical at any width)")
		manifest   = flag.String("manifest", "run-manifest.json", "write a JSON run manifest to this path after the run (\"\" disables)")
	)
	flag.Parse()
	parallel.SetDefaultWorkers(*workers)
	// SIGINT/SIGTERM cancel the run cooperatively: experiments that have
	// not started are skipped, in-flight ones finish, and the process
	// exits non-zero without writing a partial manifest.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	m, err := runAll(ctx, os.Stdout, *which, *runs, *seed, *concurrent)
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(1)
	}
	if *manifest != "" {
		if err := writeManifest(*manifest, m); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		expLog.Info("manifest written", "path", *manifest)
	}
}

// manifestEntry records one experiment's wall time and memory
// footprint, measured as runtime.MemStats deltas across the
// experiment. MemStats is process-wide, so with -parallel > 1 the
// memory fields attribute everything the process did during the
// experiment's window — concurrent experiments inflate each other's
// numbers. Run with -parallel 1 when the footprint matters.
type manifestEntry struct {
	ID          string  `json:"id"`
	WallSeconds float64 `json:"wallSeconds"`
	// PeakHeapBytes is the largest live-heap size observed while the
	// experiment ran (sampled, so short spikes can be missed).
	PeakHeapBytes uint64 `json:"peakHeapBytes"`
	// GCCycles is how many collections completed during the experiment.
	GCCycles uint32 `json:"gcCycles"`
	// Allocs is the number of heap objects allocated during the
	// experiment.
	Allocs uint64 `json:"allocs"`
	// TraceHealth is the bias-observatory summary of the experiment's
	// run-0 logged trace (grade, windows, alarms, worst ESS/N and
	// zero-support), for experiments that compute one — so a results
	// table can be audited for trace pathologies after the fact.
	TraceHealth *biasobs.HealthSummary `json:"traceHealth,omitempty"`
	// Event is the experiment's wide event — the same flat canonical
	// record drevald emits per request, with the experiment id as the
	// request id — so manifest tooling and the serving stack share one
	// event vocabulary.
	Event *wideevent.Event `json:"event,omitempty"`
}

// memWatch measures one experiment's memory footprint: MemStats deltas
// plus a periodically-sampled live-heap peak.
type memWatch struct {
	stop   chan struct{}
	done   chan struct{}
	before runtime.MemStats
	peak   uint64
}

func startMemWatch() *memWatch {
	w := &memWatch{stop: make(chan struct{}), done: make(chan struct{})}
	runtime.ReadMemStats(&w.before)
	w.peak = w.before.HeapAlloc
	go func() {
		defer close(w.done)
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		var ms runtime.MemStats
		for {
			select {
			case <-w.stop:
				return
			case <-tick.C:
				runtime.ReadMemStats(&ms)
				if ms.HeapAlloc > w.peak {
					w.peak = ms.HeapAlloc
				}
			}
		}
	}()
	return w
}

func (w *memWatch) end() (peakHeap uint64, gcCycles uint32, allocs uint64) {
	close(w.stop)
	<-w.done
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	if after.HeapAlloc > w.peak {
		w.peak = after.HeapAlloc
	}
	return w.peak, after.NumGC - w.before.NumGC, after.Mallocs - w.before.Mallocs
}

// runManifest ties a results table to the configuration that produced
// it: seed, pool width, per-experiment timings, and the binary version
// (stamped from build info, git-describe style).
type runManifest struct {
	Seed        int64           `json:"seed"`
	Runs        int             `json:"runs"`
	Workers     int             `json:"workers"`
	Parallel    int             `json:"parallel"`
	Version     string          `json:"version"`
	StartedAt   time.Time       `json:"startedAt"`
	WallSeconds float64         `json:"wallSeconds"`
	Experiments []manifestEntry `json:"experiments"`
	// SLO is the run's compliance against the default objectives,
	// computed over the per-experiment wide events (drift-free grades
	// from the trace-health summaries in particular) — out-of-scope
	// objectives report total 0 / met true.
	SLO []slo.Compliance `json:"slo,omitempty"`
}

func writeManifest(path string, m *runManifest) error {
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// run executes the selected experiments and renders the results to w
// in declaration order; kept as the manifest-free entry point.
func run(w io.Writer, which string, runs int, seed int64, parallel int) error {
	_, err := runAll(context.Background(), w, which, runs, seed, parallel)
	return err
}

// runAll executes the selected experiments — up to parallel of them
// concurrently — renders the results to w in declaration order, and
// returns a manifest of what ran and how long each phase took. Each
// experiment is timed on the wall clock and logged through expLog.
// Once ctx ends, experiments that have not yet started are skipped and
// runAll returns ctx's error after the in-flight ones finish.
func runAll(ctx context.Context, w io.Writer, which string, runs int, seed int64, concurrent int) (*runManifest, error) {
	all := []struct {
		id string
		fn runner
	}{
		{"F7a", experiments.Figure7a},
		{"F7b", func(r int, s int64) (experiments.Result, error) { return experiments.Figure7b(r, 5, s) }},
		{"F7c", func(r int, s int64) (experiments.Result, error) { return experiments.Figure7c(r, 0, s) }},
		{"E1", experiments.SecondOrderBias},
		{"E2", experiments.RandomnessSweep},
		{"E3", experiments.NonStationaryReplay},
		{"E4", experiments.WorldStateCorrection},
		{"E5", experiments.CouplingCorrection},
		{"E6", experiments.DimensionalitySweep},
		{"E7", experiments.RelayBias},
		{"E8", experiments.PolicySelection},
		{"E9", experiments.PropensityEstimation},
		{"E10", experiments.ExplorationDesign},
		{"E11", experiments.OnlineVsOffline},
		{"E12", experiments.CCReplayBias},
		{"ABL", experiments.Ablations},
	}

	want := map[string]bool{}
	if which != "all" {
		for _, id := range strings.Split(which, ",") {
			want[strings.TrimSpace(strings.ToUpper(id))] = true
		}
	}
	type job struct {
		id string
		fn runner
	}
	var jobs []job
	for _, e := range all {
		if which != "all" && !want[strings.ToUpper(e.id)] {
			continue
		}
		jobs = append(jobs, job{e.id, e.fn})
	}
	if len(jobs) == 0 {
		return nil, fmt.Errorf("no experiment matches -run=%s", which)
	}
	if concurrent < 1 {
		concurrent = 1
	}
	if concurrent > len(jobs) {
		concurrent = len(jobs)
	}

	m := &runManifest{
		Seed:      seed,
		Runs:      runs,
		Workers:   parallel.DefaultWorkers(),
		Parallel:  concurrent,
		Version:   obs.Version(),
		StartedAt: time.Now().UTC(),
	}
	type outcome struct {
		res      experiments.Result
		err      error
		seconds  float64
		peakHeap uint64
		gcCycles uint32
		allocs   uint64
		skipped  bool
	}
	start := time.Now()
	results := make([]outcome, len(jobs))
	// The workers take jobs in declaration order, so every run starts
	// them in the same order.
	var next atomic.Int32
	var wg sync.WaitGroup
	for range concurrent {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(jobs); i = int(next.Add(1)) - 1 {
				// A signal skips every job not yet started; in-flight
				// experiments are left to finish.
				if ctx.Err() != nil {
					results[i] = outcome{skipped: true}
					continue
				}
				j := jobs[i]
				expLog.Info("experiment start", "id", j.id, "runs", runs, "seed", seed)
				mw := startMemWatch()
				t0 := time.Now()
				res, err := j.fn(runs, seed)
				d := time.Since(t0)
				peakHeap, gcCycles, allocs := mw.end()
				results[i] = outcome{
					res: res, err: err, seconds: d.Seconds(),
					peakHeap: peakHeap, gcCycles: gcCycles, allocs: allocs,
				}
				if err != nil {
					expLog.Error("experiment failed", "id", j.id, "seconds", d.Seconds(), "err", err)
					continue
				}
				expLog.Info("experiment done", "id", j.id, "seconds", d.Seconds())
			}
		}()
	}
	wg.Wait()
	m.WallSeconds = time.Since(start).Seconds()
	skipped := 0
	var events []*wideevent.Event
	for i, out := range results {
		if out.skipped {
			skipped++
			continue
		}
		if out.err != nil {
			return nil, fmt.Errorf("%s: %w", jobs[i].id, out.err)
		}
		ev := &wideevent.Event{
			Time:       m.StartedAt,
			RequestID:  jobs[i].id,
			Route:      "experiment",
			Status:     200,
			DurationMs: out.seconds * 1000,
		}
		if out.res.Health != nil {
			ev.BiasGrade = out.res.Health.Grade
		}
		events = append(events, ev)
		m.Experiments = append(m.Experiments, manifestEntry{
			ID: jobs[i].id, WallSeconds: out.seconds,
			PeakHeapBytes: out.peakHeap, GCCycles: out.gcCycles, Allocs: out.allocs,
			TraceHealth: out.res.Health,
			Event:       ev,
		})
		fmt.Fprintln(w, out.res.Render())
	}
	if skipped > 0 {
		return nil, fmt.Errorf("interrupted: %d of %d experiments skipped: %w", skipped, len(jobs), ctx.Err())
	}
	m.SLO = slo.Summarize(slo.DefaultConfig().Objectives, events)
	return m, nil
}
