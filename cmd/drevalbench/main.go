// Command drevalbench runs the repository's standardized performance
// workloads (internal/benchkit) and writes the result as one point of
// the repo's perf trajectory: a versioned BENCH_<timestamp>.json with
// per-estimator throughput, p50/p95/p99 latency, allocations and peak
// heap at every (trace size × worker count) combination, optionally
// followed by a diff against the checked-in baseline. It measures the
// estimator kernels in process; the drevald daemon is measured end to
// end, with every answer checked, by `bash e2ebench/run.sh --workload <w>`.
//
// Usage:
//
//	drevalbench [-quick] [-sizes 1000,10000,50000] [-workers 1,2,8]
//	            [-iters 20] [-bootstrap 100] [-seed 1]
//	            [-out .] [-baseline bench/baseline.json] [-strict]
//	            [-cpuprofile cpu.pprof] [-memprofile heap.pprof]
//
// Exit status: 0 on success (regressions against the baseline are
// warnings unless -strict), 1 on build/measure errors or, with
// -strict, on threshold violations.
//
// Comparing two machines' absolute numbers is meaningless; the
// trajectory works because CI and developers diff against a baseline
// recorded under the same workload definitions.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"drnet/internal/benchkit"
	"drnet/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with injectable args and streams, so the tests can drive
// the full CLI in-process.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("drevalbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		quick     = fs.Bool("quick", false, "CI smoke mode: small sizes and iteration counts, finishes in seconds")
		sizes     = fs.String("sizes", "", "comma-separated trace sizes (default from -quick or the full config)")
		workers   = fs.String("workers", "", "comma-separated worker-pool widths")
		iters     = fs.Int("iters", 0, "measured iterations per cell (0 = config default)")
		bootstrap = fs.Int("bootstrap", 0, "bootstrap resamples in the bootstrap workload (0 = config default)")
		seed      = fs.Int64("seed", 1, "synthetic workload seed")
		outDir    = fs.String("out", ".", "directory the BENCH_<timestamp>.json report is written to")
		baseline  = fs.String("baseline", "bench/baseline.json", "baseline report to diff against (\"\" or a missing file skips the diff)")
		strict    = fs.Bool("strict", false, "exit non-zero when the diff crosses a regression threshold (default: warn only, for noisy CI runners)")
		thDrop    = fs.Float64("max-throughput-drop", benchkit.DefaultThresholds().MaxThroughputDrop, "regression threshold: fractional ops/s drop vs baseline")
		thLat     = fs.Float64("max-latency-growth", benchkit.DefaultThresholds().MaxLatencyGrowth, "regression threshold: fractional p95 growth vs baseline")
		thAlloc   = fs.Float64("max-alloc-growth", benchkit.DefaultThresholds().MaxAllocGrowth, "regression threshold: fractional allocs/op growth vs baseline")
		thMinP50  = fs.Float64("min-reliable-p50-ms", benchkit.DefaultThresholds().MinReliableP50Ms, "skip throughput/latency checks for cells whose p50 is below this on both sides (allocs always checked); 0 disables")
		cpuProf   = fs.String("cpuprofile", "", "write a CPU pprof profile of the workload run to this file")
		memProf   = fs.String("memprofile", "", "write a heap pprof profile (taken after the run) to this file")
	)
	if err := fs.Parse(args); err != nil {
		return 1
	}

	cfg := benchkit.DefaultConfig()
	if *quick {
		cfg = benchkit.QuickConfig()
	}
	cfg.Seed = *seed
	if *sizes != "" {
		v, err := parseInts(*sizes)
		if err != nil {
			fmt.Fprintf(stderr, "drevalbench: -sizes: %v\n", err)
			return 1
		}
		cfg.Sizes = v
	}
	if *workers != "" {
		v, err := parseInts(*workers)
		if err != nil {
			fmt.Fprintf(stderr, "drevalbench: -workers: %v\n", err)
			return 1
		}
		cfg.Workers = v
	}
	if *iters > 0 {
		cfg.Iters = *iters
	}
	if *bootstrap > 0 {
		cfg.BootstrapResamples = *bootstrap
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintf(stderr, "drevalbench: -cpuprofile: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(stderr, "drevalbench: starting CPU profile: %v\n", err)
			_ = f.Close() // nothing was written yet
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintf(stderr, "drevalbench: closing CPU profile: %v\n", err)
			}
		}()
	}

	logf := func(format string, a ...any) { fmt.Fprintf(stderr, format+"\n", a...) }
	logf("drevalbench: version=%s quick=%v sizes=%v workers=%v iters=%d",
		obs.Version(), *quick, cfg.Sizes, cfg.Workers, cfg.Iters)
	rep, err := benchkit.Run(cfg, obs.Version(), logf)
	if err != nil {
		fmt.Fprintf(stderr, "drevalbench: %v\n", err)
		return 1
	}
	rep.Timestamp = time.Now().UTC().Format(time.RFC3339)

	if *memProf != "" {
		runtime.GC()
		f, err := os.Create(*memProf)
		if err != nil {
			fmt.Fprintf(stderr, "drevalbench: -memprofile: %v\n", err)
			return 1
		}
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(stderr, "drevalbench: writing heap profile: %v\n", err)
			_ = f.Close() // the profile is already unusable
			return 1
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(stderr, "drevalbench: closing heap profile: %v\n", err)
			return 1
		}
	}

	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "drevalbench: %v\n", err)
		return 1
	}
	outPath := filepath.Join(*outDir, "BENCH_"+time.Now().UTC().Format("20060102T150405Z")+".json")
	if err := benchkit.WriteReport(outPath, rep); err != nil {
		fmt.Fprintf(stderr, "drevalbench: writing report: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "report written to %s (%d cells, %.1fs)\n", outPath, len(rep.Cells), rep.WallSeconds)

	if *baseline != "" {
		base, err := benchkit.ReadReport(*baseline)
		switch {
		case os.IsNotExist(err):
			logf("drevalbench: no baseline at %s, skipping diff", *baseline)
		case err != nil:
			fmt.Fprintf(stderr, "drevalbench: reading baseline: %v\n", err)
			return 1
		default:
			th := benchkit.Thresholds{
				MaxThroughputDrop: *thDrop,
				MaxLatencyGrowth:  *thLat,
				MaxAllocGrowth:    *thAlloc,
				MinReliableP50Ms:  *thMinP50,
			}
			regs := benchkit.Diff(rep, base, th)
			if len(regs) == 0 {
				fmt.Fprintf(stdout, "baseline %s: no regressions\n", *baseline)
			} else {
				for _, r := range regs {
					fmt.Fprintf(stdout, "REGRESSION %s\n", r)
				}
				if *strict {
					fmt.Fprintf(stderr, "drevalbench: %d regression(s) against %s\n", len(regs), *baseline)
					return 1
				}
				fmt.Fprintf(stdout, "%d regression(s) against %s (warn-only; pass -strict to fail)\n", len(regs), *baseline)
			}
		}
	}
	return 0
}

// parseInts parses a comma-separated list of positive integers.
func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("%q is not an integer", part)
		}
		if v < 1 {
			return nil, fmt.Errorf("%d must be >= 1", v)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty list")
	}
	return out, nil
}
