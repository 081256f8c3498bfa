package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"slices"
	"time"

	"drnet/internal/obs"
)

// traceLayers runs w's replica once untraced to warm up and once
// traced, writes the traced spans to spansPath, and returns the
// per-layer ledger plus the workload-level metrics measured beside it.
// o is the untraced HTTP run of the same workload, whose client-visible
// time per operation the layers are subtracted from.
func traceLayers(ctx context.Context, w workload, e *env, o *outcome, spansPath string) (map[string]metricValue, error) {
	// drevald keeps its completed obs spans in a 512-span ring.
	obs.Default.SetTraceRecorder(obs.NewTraceRecorder(512))
	replay, err := w.replica(ctx, e)
	if err != nil {
		return nil, err
	}
	// Each pass starts from a collected heap, so the traced pass does
	// not pay for the garbage the warmup left.
	runtime.GC()
	if _, err := replay(nil); err != nil {
		return nil, err
	}
	runtime.GC()
	rec := newRecorder()
	units, err := replay(rec)
	if err != nil {
		return nil, err
	}
	if err := writeSpans(spansPath, rec.spans); err != nil {
		return nil, err
	}
	stats, opNs := ledger(rec.spans)
	for name := range stats {
		if name != "op" && !slices.Contains(layers, name) {
			return nil, fmt.Errorf("span %q is not a ledger layer", name)
		}
	}
	m := map[string]metricValue{}
	var layerMs float64
	fmt.Fprintf(os.Stderr, "e2ebench: %s ledger over %d ops (%d spans, %s)\n", w.name, units, len(rec.spans), spansPath)
	for _, name := range layers {
		st := stats[name]
		if st == nil {
			st = &layerStat{}
		}
		perOp := float64(st.SelfNs) / float64(time.Millisecond) / float64(units)
		layerMs += perOp
		share := float64(st.SelfNs) / float64(opNs)
		m[name+".ms_per_op"] = metricValue{perOp, "ms"}
		m[name+".share"] = metricValue{share, "fraction"}
		m[name+".allocs_per_op"] = metricValue{float64(st.Allocs) / float64(units), "count"}
		m[name+".calls"] = metricValue{float64(st.Calls), "count"}
		if st.Calls > 0 {
			fmt.Fprintf(os.Stderr, "e2ebench:   %-17s %10.4f ms/op %6.1f%% %10.0f allocs/op %8d calls\n",
				name, perOp, 100*share, float64(st.Allocs)/float64(units), st.Calls)
		}
	}
	if !o.lat.P95OK {
		return nil, fmt.Errorf("only %d latency samples: too few to report a 95th percentile", o.lat.N)
	}
	lag := 0.0
	if o.readerLag.P95OK {
		lag = o.readerLag.P95
	}
	m["unattributed_ms"] = metricValue{o.clientMsPerOp - layerMs, "ms"}
	m["span_overhead_frac"] = metricValue{float64(rec.overheadNs) / float64(opNs-rec.overheadNs), "fraction"}
	m["reader_lag_p95_ms"] = metricValue{lag, "ms"}
	m["latency_p95_ms"] = metricValue{o.lat.P95, "ms"}
	fmt.Fprintf(os.Stderr, "e2ebench:   client %.4f ms/op - layers %.4f ms/op = unattributed %.4f ms/op\n",
		o.clientMsPerOp, layerMs, m["unattributed_ms"].Value)
	fmt.Fprintf(os.Stderr, "e2ebench:   span overhead %.2f%%; reader lag p95 %.3f ms\n",
		100*m["span_overhead_frac"].Value, lag)
	return m, nil
}
