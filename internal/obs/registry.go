// Package obs is the repository's observability layer: an atomic
// metrics registry (counters, gauges, fixed-bucket histograms with
// Prometheus text exposition), a leveled structured logger, and
// lightweight timing spans. It exists so drevald, the estimators and
// the parallel pool can export the paper's regime diagnostics — ESS,
// weight tails, zero-support counts (§4.1) — continuously instead of
// once per response.
//
// The package depends only on the standard library and is safe for
// concurrent use throughout. Instrumentation must never perturb
// results: nothing here draws randomness from the evaluation RNG
// streams, and every metric operation is a plain atomic on a cached
// pointer, so the determinism guarantee of internal/parallel
// (bit-identical output at every worker count) is preserved with
// instrumentation enabled.
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Default is the process-wide registry. Package-level instrumentation
// (the parallel pool gauges, drevald's request metrics) registers here
// so one /metrics endpoint exposes every layer.
var Default = NewRegistry()

// Label is one metric dimension, e.g. {Key: "route", Value: "/evaluate"}.
type Label struct{ Key, Value string }

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// kind discriminates metric families. kindUnset marks a family created
// by Help before any metric registered under the name; the first real
// registration adopts it.
type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
	kindUnset
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// Counter is a monotonically increasing uint64, safe for concurrent use.
type Counter struct{ v atomic.Uint64 }

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add increments by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a float64 that can go up and down, safe for concurrent use.
type Gauge struct{ bits atomic.Uint64 }

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add shifts the gauge by delta (negative to decrease).
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Inc adds 1.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts 1.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram counts observations into fixed buckets (upper bounds,
// ascending, exclusive of the implicit +Inf bucket) and tracks the sum
// of observed values. Safe for concurrent use.
type Histogram struct {
	upper   []float64       // bucket upper bounds, ascending
	counts  []atomic.Uint64 // len(upper)+1; last is the +Inf bucket
	sumBits atomic.Uint64
	count   atomic.Uint64
	// exemplars holds, per bucket, the most recent traced observation
	// (ObserveExemplar); nil entries mean the bucket has none yet.
	exemplars []atomic.Pointer[Exemplar]
}

// Exemplar links one concrete observation to the trace that produced
// it, so a fat p99 bucket points at a timeline instead of a mystery.
type Exemplar struct {
	// Value is the observed value.
	Value float64 `json:"value"`
	// TraceID is the trace/correlation ID of the producing request.
	TraceID string `json:"traceId"`
}

// bucketIndex returns the bucket v falls into. A linear scan beats
// binary search at these bucket counts (≤ ~20) and keeps the hot path
// branch-predictable.
func (h *Histogram) bucketIndex(v float64) int {
	i := 0
	for i < len(h.upper) && v > h.upper[i] {
		i++
	}
	return i
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.counts[h.bucketIndex(v)].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveExemplar records one value and remembers (value, traceID) as
// the bucket's exemplar — last writer wins. An empty traceID degrades
// to a plain Observe.
func (h *Histogram) ObserveExemplar(v float64, traceID string) {
	if traceID != "" {
		h.exemplars[h.bucketIndex(v)].Store(&Exemplar{Value: v, TraceID: traceID})
	}
	h.Observe(v)
}

// BucketExemplar returns bucket i's exemplar (i == len(buckets) is the
// +Inf bucket), or nil when the bucket has none.
func (h *Histogram) BucketExemplar(i int) *Exemplar {
	if i < 0 || i >= len(h.exemplars) {
		return nil
	}
	return h.exemplars[i].Load()
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// ExpBuckets returns n exponentially spaced bucket upper bounds
// start, start*factor, start*factor², …. It panics on invalid
// arguments, as bucket layouts are compile-time decisions.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("obs: ExpBuckets requires start > 0, factor > 1, n >= 1")
	}
	b := make([]float64, n)
	v := start
	for i := range b {
		b[i] = v
		v *= factor
	}
	return b
}

// TimeBuckets is the default layout for duration histograms:
// 0.5 ms … ~16 s in doubling steps.
var TimeBuckets = ExpBuckets(0.0005, 2, 16)

// family groups every label combination of one metric name.
type family struct {
	name    string
	help    string
	kind    kind
	buckets []float64      // histograms only
	series  map[string]any // label string → *Counter | *Gauge | *Histogram
}

// Registry is a goroutine-safe collection of metric families. Metric
// lookup (get-or-create) takes a mutex; the returned metric pointers
// are lock-free, so callers on hot paths cache them.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	samplers []func()
	// traceRec, when set, receives every completed span (see trace.go).
	traceRec atomic.Pointer[TraceRecorder]
}

// RegisterSampler adds a function invoked at the start of every
// exposition (WritePrometheus, Snapshot), before the registry lock is
// taken. Samplers pull point-in-time state — runtime memory stats,
// queue depths — into gauges so scrape-time values are fresh without a
// background poller.
func (r *Registry) RegisterSampler(f func()) {
	r.mu.Lock()
	r.samplers = append(r.samplers, f)
	r.mu.Unlock()
}

// runSamplers invokes the registered samplers outside the registry
// lock (samplers set gauges, which relock internally).
func (r *Registry) runSamplers() {
	r.mu.Lock()
	fs := make([]func(), len(r.samplers))
	copy(fs, r.samplers)
	r.mu.Unlock()
	for _, f := range fs {
		f()
	}
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// labelString renders labels in sorted key order as
// `k1="v1",k2="v2"`, the form used both as the series key and in the
// Prometheus exposition.
func labelString(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := make([]Label, len(labels))
	copy(ls, labels)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var sb strings.Builder
	for i, l := range ls {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(l.Key)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabelValue(l.Value))
		sb.WriteByte('"')
	}
	return sb.String()
}

func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// lookup returns the series for (name, labels), creating family and
// series as needed. It panics if name is already registered with a
// different kind or bucket layout — a programmer error, not a runtime
// condition.
func (r *Registry) lookup(name string, k kind, buckets []float64, labels []Label) any {
	ls := labelString(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, kind: k, buckets: buckets, series: map[string]any{}}
		r.families[name] = f
	} else if f.kind == kindUnset {
		f.kind = k
		f.buckets = buckets
	} else if f.kind != k {
		panic(fmt.Sprintf("obs: metric %q registered as %v, requested as %v", name, f.kind, k))
	}
	s, ok := f.series[ls]
	if !ok {
		switch k {
		case kindCounter:
			s = &Counter{}
		case kindGauge:
			s = &Gauge{}
		default:
			h := &Histogram{upper: f.buckets}
			h.counts = make([]atomic.Uint64, len(f.buckets)+1)
			h.exemplars = make([]atomic.Pointer[Exemplar], len(f.buckets)+1)
			s = h
		}
		f.series[ls] = s
	}
	return s
}

// Counter returns the counter for (name, labels), creating it on first
// use.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	return r.lookup(name, kindCounter, nil, labels).(*Counter)
}

// Gauge returns the gauge for (name, labels), creating it on first use.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	return r.lookup(name, kindGauge, nil, labels).(*Gauge)
}

// Histogram returns the histogram for (name, labels), creating it with
// the given bucket upper bounds on first use. Later calls for the same
// name may pass nil buckets; if they pass a layout it must match the
// first registration.
func (r *Registry) Histogram(name string, buckets []float64, labels ...Label) *Histogram {
	if len(buckets) == 0 {
		buckets = TimeBuckets
	}
	h := r.lookup(name, kindHistogram, buckets, labels).(*Histogram)
	return h
}

// Help sets the HELP text emitted for a metric family.
func (r *Registry) Help(name, text string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		f.help = text
	} else {
		r.families[name] = &family{name: name, help: text, series: map[string]any{}, kind: kindUnset}
	}
}

func formatFloat(v float64) string {
	if math.IsInf(v, +1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders every family in the classic Prometheus text
// exposition format (version 0.0.4), families and series in sorted
// order so output is stable for tests and diffing. Exemplars are never
// emitted here: the 0.0.4 parser only treats '#' as a comment at line
// start, so an exemplar suffix on a sample line would make a standard
// Prometheus scrape fail outright. Scrapers that understand exemplars
// negotiate WriteOpenMetrics via MetricsHandler instead.
func (r *Registry) WritePrometheus(w io.Writer) error {
	return r.writeExposition(w, false)
}

// WriteOpenMetrics renders every family in OpenMetrics text format
// (application/openmetrics-text): the classic layout plus histogram
// bucket exemplars and the mandatory `# EOF` terminator. Counter
// family metadata drops the `_total` suffix, as the spec requires
// (`# TYPE foo counter` describing the `foo_total` sample); a counter
// whose name lacks the suffix is declared `unknown` so the exposition
// stays parseable.
func (r *Registry) WriteOpenMetrics(w io.Writer) error {
	return r.writeExposition(w, true)
}

func (r *Registry) writeExposition(w io.Writer, openMetrics bool) error {
	r.runSamplers()
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for n := range r.families {
		names = append(names, n)
	}
	sort.Strings(names)
	type snap struct {
		f      *family
		keys   []string
		series []any
	}
	snaps := make([]snap, 0, len(names))
	for _, n := range names {
		f := r.families[n]
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		series := make([]any, len(keys))
		for i, k := range keys {
			series[i] = f.series[k]
		}
		snaps = append(snaps, snap{f, keys, series})
	}
	r.mu.Unlock()

	var sb strings.Builder
	for _, s := range snaps {
		if len(s.series) == 0 {
			continue
		}
		metaName, metaKind := s.f.name, s.f.kind.String()
		if openMetrics && s.f.kind == kindCounter {
			if strings.HasSuffix(s.f.name, "_total") {
				metaName = strings.TrimSuffix(s.f.name, "_total")
			} else {
				metaKind = "unknown"
			}
		}
		if s.f.help != "" {
			fmt.Fprintf(&sb, "# HELP %s %s\n", metaName, s.f.help)
		}
		fmt.Fprintf(&sb, "# TYPE %s %s\n", metaName, metaKind)
		for i, key := range s.keys {
			switch m := s.series[i].(type) {
			case *Counter:
				fmt.Fprintf(&sb, "%s%s %d\n", s.f.name, wrapLabels(key), m.Value())
			case *Gauge:
				fmt.Fprintf(&sb, "%s%s %s\n", s.f.name, wrapLabels(key), formatFloat(m.Value()))
			case *Histogram:
				writeHistogram(&sb, s.f.name, key, m, openMetrics)
			}
		}
	}
	if openMetrics {
		sb.WriteString("# EOF\n")
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

func wrapLabels(key string) string {
	if key == "" {
		return ""
	}
	return "{" + key + "}"
}

// writeHistogram emits cumulative buckets, sum and count for one
// histogram series. The le label is appended after any series labels.
// With exemplars enabled (OpenMetrics only — the 0.0.4 format cannot
// represent them), buckets that carry one get it appended as
// ` # {trace_id="…"} value`.
func writeHistogram(sb *strings.Builder, name, key string, h *Histogram, exemplars bool) {
	prefix := name + "_bucket{"
	if key != "" {
		prefix += key + ","
	}
	var cum uint64
	for i := 0; i <= len(h.upper); i++ {
		cum += h.counts[i].Load()
		ub := "+Inf"
		if i < len(h.upper) {
			ub = formatFloat(h.upper[i])
		}
		var ex string
		if exemplars {
			ex = exemplarSuffix(h.BucketExemplar(i))
		}
		fmt.Fprintf(sb, "%sle=%q} %d%s\n", prefix, ub, cum, ex)
	}
	fmt.Fprintf(sb, "%s_sum%s %s\n", name, wrapLabels(key), formatFloat(h.Sum()))
	fmt.Fprintf(sb, "%s_count%s %d\n", name, wrapLabels(key), h.count.Load())
}

// exemplarSuffix renders an OpenMetrics exemplar annotation, or "" when
// the bucket has none.
func exemplarSuffix(e *Exemplar) string {
	if e == nil {
		return ""
	}
	return fmt.Sprintf(" # {trace_id=%q} %s", e.TraceID, formatFloat(e.Value))
}

// Snapshot returns a JSON-encodable view of every metric, keyed
// "name" or "name{labels}", for /debug/vars-style endpoints.
func (r *Registry) Snapshot() map[string]any {
	r.runSamplers()
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]any, len(r.families))
	for name, f := range r.families {
		for key, s := range f.series {
			full := name + wrapLabels(key)
			switch m := s.(type) {
			case *Counter:
				out[full] = m.Value()
			case *Gauge:
				out[full] = m.Value()
			case *Histogram:
				buckets := make(map[string]uint64, len(m.upper)+1)
				var cum uint64
				for i, ub := range m.upper {
					cum += m.counts[i].Load()
					buckets[formatFloat(ub)] = cum
				}
				cum += m.counts[len(m.upper)].Load()
				buckets["+Inf"] = cum
				view := map[string]any{
					"count":   m.Count(),
					"sum":     m.Sum(),
					"buckets": buckets,
				}
				exemplars := map[string]*Exemplar{}
				for i := range m.exemplars {
					if e := m.exemplars[i].Load(); e != nil {
						ub := "+Inf"
						if i < len(m.upper) {
							ub = formatFloat(m.upper[i])
						}
						exemplars[ub] = e
					}
				}
				if len(exemplars) > 0 {
					view["exemplars"] = exemplars
				}
				out[full] = view
			}
		}
	}
	return out
}

// MetricsHandler serves the registry over HTTP, negotiating the format
// from the Accept header: scrapers that ask for
// application/openmetrics-text get the OpenMetrics exposition with
// bucket exemplars and `# EOF`; everyone else gets classic
// text/plain 0.0.4 without exemplars, which a stock Prometheus parses
// cleanly.
func (r *Registry) MetricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if strings.Contains(req.Header.Get("Accept"), "application/openmetrics-text") {
			w.Header().Set("Content-Type", "application/openmetrics-text; version=1.0.0; charset=utf-8")
			_ = r.WriteOpenMetrics(w)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}
