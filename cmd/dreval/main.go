// Command dreval evaluates a new policy on a logged trace using the
// Direct Method, IPS and the Doubly Robust estimator, with overlap
// diagnostics and bootstrap confidence intervals.
//
// The trace is a CSV or JSON-lines file in the traceio schema (numeric
// features, decision label, reward, propensity). The new policy is
// specified on the command line:
//
//	-policy constant:<decision>   always choose <decision>
//	-policy best-observed         per-context-group argmax of mean reward
//
// When the trace has no recorded propensities (all zero), pass
// -estimate-propensities to estimate them from per-context-group
// decision frequencies.
//
// Pass -windows N to append a windowed bias-observatory report (per
// window: ESS/N, weight mass, zero-support, coverage entropy, reward
// moments) with CUSUM drift alarms over the window series. -diagnose
// stops after the diagnostics — overlap plus windowed report — without
// running the estimators.
//
// Usage:
//
//	dreval -trace trace.csv -policy constant:cdnA [-format csv]
//	       [-estimate-propensities] [-clip 0] [-bootstrap 200]
//	       [-windows 8] [-diagnose]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"drnet/internal/biasobs"
	"drnet/internal/core"
	"drnet/internal/obs"
	"drnet/internal/traceio"
	"drnet/internal/wideevent"
)

func main() {
	var (
		tracePath = flag.String("trace", "", "trace file (required)")
		format    = flag.String("format", "csv", "trace format: csv or jsonl")
		policy    = flag.String("policy", "", "new policy: constant:<decision> or best-observed (required)")
		estProp   = flag.Bool("estimate-propensities", false, "estimate propensities from the trace")
		clip      = flag.Float64("clip", 0, "importance-weight clipping threshold (0 = off)")
		selfNorm  = flag.Bool("self-normalize", false, "use self-normalized IPS/DR")
		bootstrap = flag.Int("bootstrap", 200, "bootstrap resamples for the DR confidence interval (0 = off)")
		seed      = flag.Int64("seed", 1, "RNG seed for the bootstrap")
		windows   = flag.Int("windows", 0, "index windows for the bias-observatory report (0 = off)")
		diagOnly  = flag.Bool("diagnose", false, "print diagnostics only, skip the estimators")
		eventsOut = flag.String("events-out", "", "append one JSONL wide event describing this run to the given file")
	)
	flag.Parse()
	if *tracePath == "" || *policy == "" {
		flag.Usage()
		os.Exit(2)
	}
	if *windows < 0 {
		fmt.Fprintln(os.Stderr, "dreval: -windows must be >= 0")
		os.Exit(2)
	}
	if *diagOnly && *windows == 0 {
		*windows = biasobs.DefaultWindows
	}
	// The CLI honours the same one-run-one-event contract as the
	// server: a single flat wide event per invocation, success or
	// failure, appended as JSONL. The builder is nil when -events-out
	// is unset; every Builder method is nil-safe.
	var journal *wideevent.Journal
	var evb *wideevent.Builder
	if *eventsOut != "" {
		journal = wideevent.NewJournal(wideevent.Options{Capacity: 1, SampleRate: 1})
		evb = journal.Begin(obs.NewID(), "dreval")
	}
	err := run(*tracePath, *format, *policy, *estProp, *clip, *selfNorm, *bootstrap, *seed, *windows, *diagOnly, evb)
	if journal != nil {
		if werr := writeRunEvent(journal, evb, *eventsOut, err); werr != nil {
			fmt.Fprintf(os.Stderr, "dreval: writing -events-out: %v\n", werr)
			os.Exit(1)
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "dreval: %v\n", err)
		os.Exit(1)
	}
}

// writeRunEvent finalises the run's wide event (status 200 on
// success, 500 with the error message otherwise) and appends it as
// one JSONL line.
func writeRunEvent(journal *wideevent.Journal, evb *wideevent.Builder, path string, runErr error) error {
	if runErr != nil {
		evb.SetError(runErr.Error())
		evb.Finish(500)
	} else {
		evb.Finish(200)
	}
	evs := journal.Events()
	if len(evs) != 1 {
		return fmt.Errorf("journal holds %d events, want 1", len(evs))
	}
	line, err := json.Marshal(evs[0])
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		// The write error is already being returned; a close failure
		// here adds nothing the caller can act on.
		_ = f.Close()
		return err
	}
	return f.Close()
}

func run(tracePath, format, policySpec string, estProp bool, clip float64, selfNorm bool, bootstrapB int, seed int64, windows int, diagOnly bool, evb *wideevent.Builder) error {
	evb.SetPolicy(policySpec)
	f, err := os.Open(tracePath)
	if err != nil {
		return err
	}
	defer f.Close()
	endRead := evb.Phase("read_trace")
	var ft traceio.FlatTrace
	switch format {
	case "csv":
		ft, err = traceio.ReadCSV(f)
	case "jsonl":
		ft, err = traceio.ReadJSONL(f)
	default:
		return fmt.Errorf("unknown format %q", format)
	}
	endRead()
	if err != nil {
		return err
	}
	// A non-finite feature would also break its context's key.
	if err := traceio.ValidateFinite(ft.Records); err != nil {
		return err
	}
	trace := traceio.ToCore(ft)
	if estProp {
		if err := core.EstimatePropensities(trace, traceio.FlatContext.Key, 5, 1e-3); err != nil {
			return err
		}
	}
	view, err := core.NewTraceViewKeyed(trace, traceio.FlatContext.Key)
	if err != nil {
		return fmt.Errorf("%w (use -estimate-propensities if the trace has none)", err)
	}
	newPolicy, err := traceio.ParsePolicyView(policySpec, view)
	if err != nil {
		return err
	}
	model := core.FitTableView(view)
	ev := core.NewEvaluation(view, newPolicy, model)
	defer ev.Release()
	endEst := evb.Phase("estimate")
	est, err := ev.Estimates(context.Background(), clip)
	endEst()
	if err != nil {
		return err
	}
	diag := est.Diagnostics
	evb.SetRegime(diag.ESS/float64(diag.N), diag.MaxWeight, diag.ZeroSupport)
	fmt.Printf("trace: %d records, %d distinct decisions\n", view.Len(), view.NumDecisions())
	fmt.Printf("old policy on-policy value: %.4f\n", view.MeanReward())
	fmt.Printf("overlap: %s\n\n", diag)

	if windows > 0 {
		endBias := evb.Phase("bias_observatory")
		report, err := biasobs.ComputeEval(context.Background(), ev, biasobs.Config{Windows: windows})
		endBias()
		if err != nil {
			return err
		}
		evb.SetBiasGrade(report.Summary().Grade)
		fmt.Println(report.Render())
	}
	if diagOnly {
		return nil
	}

	ips, dr := est.IPS, est.DR
	if selfNorm {
		ips, dr = est.SNIPS, est.SNDR
	}
	fmt.Printf("DM  (table model):  %s\n", est.DM)
	fmt.Printf("IPS:                %s\n", ips)
	fmt.Printf("DR:                 %s\n", dr)

	if bootstrapB > 0 {
		// The refit-DR bootstrap drevald's /evaluate serves: the same
		// trace, policy, options and seed give drevald's drInterval.
		endBoot := evb.Phase("bootstrap")
		ci, stats, err := ev.BootstrapDR(context.Background(), core.DROptions{Clip: clip, SelfNormalize: selfNorm}, seed, bootstrapB, 0.95)
		endBoot()
		if err != nil {
			return err
		}
		evb.SetBootstrap(stats.Resamples, stats.Skipped)
		fmt.Printf("DR 95%% bootstrap CI: [%.4f, %.4f]\n", ci.Lo, ci.Hi)
	}
	return nil
}
