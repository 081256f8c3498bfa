// Command e2ebench is drnet's end-to-end benchmark. It launches the real
// drevald binary over loopback with its default flags, one fresh
// process per workload, drives one of four workloads from this process
// with at most two load goroutines and two connections, checks every
// answer against an in-process reference computed with the core calls
// drevald makes, and prints the workload's metrics as the last line of
// standard output:
//
//	{"correct":true,"attempted":1520,"failed":0,"metrics":{...}}
//
// With --trace 0 the metrics are the end-to-end ones a client sees.
// With --trace 1 the run also replays the workload's operations in
// this process, single-goroutine, calling the same library functions
// drevald calls with a span around each, and prints the per-layer
// ledger instead; the spans are written as JSON lines.
//
// Usage (bash e2ebench/run.sh builds both binaries and supplies the
// first two flags):
//
//	e2ebench -drevald <binary> -workdir <dir> --workload eval_wide --seed 1 --seconds 10 --trace 0
//	e2ebench -drevald <binary> -workdir <dir> -suite -runs 5 -out <report> [-baseline e2ebench/suite_baseline.json]
//
// Inputs are generated from --seed alone; --seconds fixes how much work
// the measured phase does (calibrated to take about that long on a
// 2-core machine), so two commits always do the same work.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
)

// workload is one traffic mix: run drives it over HTTP against a fresh
// drevald, replica re-runs its operations in process for the ledger.
type workload struct {
	name    string
	run     func(ctx context.Context, e *env) (*outcome, error)
	replica replica
}

var workloads = []workload{
	{
		name:    "eval_wide",
		run:     func(ctx context.Context, e *env) (*outcome, error) { return runEval(ctx, e, evalWide) },
		replica: evalReplica(evalWide),
	},
	{
		name:    "eval_boot",
		run:     func(ctx context.Context, e *env) (*outcome, error) { return runEval(ctx, e, evalBoot) },
		replica: evalReplica(evalBoot),
	},
	{
		name:    "ingest_mix",
		run:     func(ctx context.Context, e *env) (*outcome, error) { return runIngest(ctx, e, ingestPerSecond) },
		replica: ingestReplica,
	},
	{
		name: "replay",
		run: func(ctx context.Context, e *env) (*outcome, error) {
			return runReplay(ctx, e, max(1, replayLaunchesPer10s*e.seconds/10))
		},
		replica: replayReplica,
	},
}

// Work per workload. Request and batch counts are per second of
// --seconds; they were calibrated so the measured phase takes about
// --seconds on a 2-core machine.
var (
	// eval_wide: request parsing dominates (decode, to_core,
	// parse_policy, build_view); the bootstrap never runs.
	evalWide = evalSpec{records: 8000, contexts: 1000, perSecond: 45}
	// eval_boot: the bootstrap on the worker pool dominates, so a
	// parsing change should barely move it.
	evalBoot = evalSpec{records: 2000, contexts: 32, bootstrap: 500, perSecond: 80}
)

const (
	// ingestPerSecond is /ingest batches per second of --seconds.
	ingestPerSecond = 900
	// replayLaunchesPer10s is how many measured restarts recover the
	// 1M-record WAL per 10 seconds of --seconds, after the cold starts.
	replayLaunchesPer10s = 3
)

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// endToEnd turns an outcome into the end-to-end metrics. The 95th
// percentile is logged and reported beside the ledger, not here: on a
// shared machine it moved by up to a third between runs of the same
// commit, too much for any regression bound.
func (o *outcome) endToEnd() map[string]metricValue {
	return map[string]metricValue{
		"throughput_per_s":     {o.throughput, "1/s"},
		"latency_p50_ms":       {o.lat.P50, "ms"},
		"server_cpu_ms_per_op": {o.cpuMsPerOp, "ms"},
		"peak_rss_mb":          {o.peakRSSMB, "MB"},
		"setup_s":              {o.setupS, "s"},
	}
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	var (
		name     = fs.String("workload", "", "workload to run: eval_wide, eval_boot, ingest_mix or replay")
		seed     = fs.Uint64("seed", 1, "seed every input is generated from")
		seconds  = fs.Int("seconds", 10, "length of the measured phase; fixes its amount of work")
		trace    = fs.Int("trace", 0, "1 = also run the traced in-process replica and print the per-layer ledger")
		bin      = fs.String("drevald", "", "path to the drevald binary")
		workdir  = fs.String("workdir", ".bench_build/run", "directory for logs, WALs and span files")
		spansOut = fs.String("spans", "", "traced runs: JSONL span file (default <workdir>/<workload>-<seed>.spans.jsonl)")
		suite    = fs.Bool("suite", false, "run every workload -runs times and write a suite report")
		runs     = fs.Int("runs", 5, "suite: runs per workload, seeds --seed, --seed+1, ...")
		out      = fs.String("out", "", "suite: write the report to this file")
		baseline = fs.String("baseline", "", "suite: diff the report against this one and fail on a regression")
		bounds   = fs.String("bounds", "BENCHMARK.json", "suite: file whose end_to_end bounds the diff applies")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *bin == "" || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "e2ebench: need -drevald, --seconds >= 1 and --trace 0 or 1")
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *suite {
		return runSuite(ctx, suiteConfig{
			bin: *bin, workdir: *workdir, seed: *seed, seconds: *seconds, runs: *runs,
			out: *out, baseline: *baseline, bounds: *bounds,
		})
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "e2ebench: unknown workload %q\n", *name)
		return 2
	}
	spans := *spansOut
	if spans == "" {
		spans = filepath.Join(*workdir, fmt.Sprintf("%s-%d.spans.jsonl", w.name, *seed))
	}
	res, err := runOne(ctx, w, *bin, *workdir, *seed, *seconds, *trace == 1, spans)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %s: %v\n", w.name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// runOne runs one workload once and returns its result line. Its
// directory of logs and WALs is removed afterwards unless the run failed.
func runOne(ctx context.Context, w workload, bin, workdir string, seed uint64, seconds int, traced bool, spansPath string) (*result, error) {
	dir := filepath.Join(workdir, fmt.Sprintf("%s-%d", w.name, seed))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	e := &env{bin: bin, dir: dir, seed: seed, seconds: seconds, client: newClient(), t: &tally{}}
	o, err := w.run(ctx, e)
	if err != nil {
		return nil, err
	}
	metrics := o.endToEnd()
	logMetrics(w.name, o, metrics)
	if traced {
		if metrics, err = traceLayers(ctx, w, e, o, spansPath); err != nil {
			return nil, err
		}
	}
	attempted, failed := e.t.counts()
	res := &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: metrics}
	if res.Correct {
		err = os.RemoveAll(dir)
	}
	return res, err
}

// logMetrics prints a run's end-to-end metrics to standard error, one
// per line, with the sample counts behind its percentiles.
func logMetrics(name string, o *outcome, m map[string]metricValue) {
	fmt.Fprintf(os.Stderr, "e2ebench: %s latency %s\n", name, o.lat)
	if o.readerLag.N > 0 {
		fmt.Fprintf(os.Stderr, "e2ebench: %s reader lag %s\n", name, o.readerLag)
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(os.Stderr, "e2ebench: %s %-32s %14.6f %s\n", name, k, m[k].Value, m[k].Unit)
	}
}
