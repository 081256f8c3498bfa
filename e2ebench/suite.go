package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sort"
)

// suiteReport is the median of several untraced runs of every workload,
// the form a baseline is kept in.
type suiteReport struct {
	GoVersion  string `json:"goVersion"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	Seconds    int    `json:"seconds"`
	// Seeds are the seeds of the runs, one run per seed per workload.
	Seeds     []uint64                        `json:"seeds"`
	Workloads map[string]map[string]suiteStat `json:"workloads"`
}

type suiteStat struct {
	Unit   string  `json:"unit"`
	Median float64 `json:"median"`
	// Spread is the interquartile distance of Runs over their median.
	Spread float64   `json:"spread"`
	Runs   []float64 `json:"runs"`
}

type suiteConfig struct {
	bin, workdir  string
	seed          uint64
	seconds, runs int
	out, baseline string
	bounds        string
}

func runSuite(ctx context.Context, cfg suiteConfig) int {
	rep := &suiteReport{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		Seconds:    cfg.seconds,
		Workloads:  map[string]map[string]suiteStat{},
	}
	for i := range cfg.runs {
		rep.Seeds = append(rep.Seeds, cfg.seed+uint64(i))
	}
	for _, w := range workloads {
		values := map[string][]float64{}
		units := map[string]string{}
		for _, seed := range rep.Seeds {
			res, err := runOne(ctx, w, cfg.bin, cfg.workdir, seed, cfg.seconds, false, "")
			if err == nil && !res.Correct {
				err = fmt.Errorf("%d of %d operations failed", res.Failed, res.Attempted)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "e2ebench: %s seed %d: %v\n", w.name, seed, err)
				return 1
			}
			for k, v := range res.Metrics {
				values[k] = append(values[k], v.Value)
				units[k] = v.Unit
			}
		}
		stats := map[string]suiteStat{}
		for k, vs := range values {
			stats[k] = suiteStat{Unit: units[k], Median: median(vs), Spread: spread(vs), Runs: vs}
		}
		rep.Workloads[w.name] = stats
	}
	if cfg.out != "" {
		b, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile(cfg.out, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "e2ebench: writing %s: %v\n", cfg.out, err)
			return 1
		}
	}
	if cfg.baseline == "" {
		return 0
	}
	base, err := readReport(cfg.baseline)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		return 1
	}
	bounds, err := readBounds(cfg.bounds)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		return 1
	}
	regs, err := diff(rep, base, bounds)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		return 1
	}
	for _, r := range regs {
		fmt.Printf("REGRESSION %s\n", r)
	}
	if len(regs) > 0 {
		return 1
	}
	fmt.Printf("no regressions against %s\n", cfg.baseline)
	return 0
}

func readReport(path string) (*suiteReport, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep suiteReport
	if err := json.Unmarshal(b, &rep); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return &rep, nil
}

// bound is one end-to-end metric's regression limit from BENCHMARK.json.
type bound struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBounds(path string) ([]bound, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc struct {
		EndToEnd []bound `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	if len(doc.EndToEnd) == 0 {
		return nil, fmt.Errorf("%s lists no end_to_end metrics", path)
	}
	return doc.EndToEnd, nil
}

// regression is one metric of one workload that got worse than its
// bound allows.
type regression struct {
	Workload, Metric  string
	Baseline, Current float64
	// Worse is the change as a share of the baseline, positive = worse.
	Worse, Bound float64
}

func (r regression) String() string {
	return fmt.Sprintf("%s %s: baseline %.6g, current %.6g (%.1f%% worse, bound %.1f%%)",
		r.Workload, r.Metric, r.Baseline, r.Current, 100*r.Worse, 100*r.Bound)
}

// diff compares the medians of every end-to-end metric of every
// workload in the baseline against cur. Reports taken with a different
// GOMAXPROCS or CPU count are refused: their numbers are not
// comparable. A metric or workload the baseline has and cur lacks is an
// error, not a pass.
func diff(cur, base *suiteReport, bounds []bound) ([]regression, error) {
	if cur.GOMAXPROCS != base.GOMAXPROCS || cur.NProc != base.NProc {
		return nil, fmt.Errorf("refusing to compare: gomaxprocs %d, nproc %d against a baseline with %d, %d",
			cur.GOMAXPROCS, cur.NProc, base.GOMAXPROCS, base.NProc)
	}
	names := make([]string, 0, len(base.Workloads))
	for w := range base.Workloads {
		names = append(names, w)
	}
	sort.Strings(names)
	var out []regression
	var missing []error
	for _, w := range names {
		for _, b := range bounds {
			was, ok := base.Workloads[w][b.Name]
			if !ok {
				continue
			}
			now, ok := cur.Workloads[w][b.Name]
			if !ok {
				missing = append(missing, fmt.Errorf("%s %s missing from the report", w, b.Name))
				continue
			}
			worse := (now.Median - was.Median) / was.Median
			if b.Better == "higher" {
				worse = -worse
			}
			if worse > b.Bound {
				out = append(out, regression{w, b.Name, was.Median, now.Median, worse, b.Bound})
			}
		}
	}
	return out, errors.Join(missing...)
}
