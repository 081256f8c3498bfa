package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime/metrics"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the traced replica.
// Spans of one operation share Op; Parent is the index of the span that
// was open when this one began (-1 for an operation's root).
type span struct {
	Name    string `json:"name"`
	Op      int    `json:"op"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	StartNs int64  `json:"startNs"`
	EndNs   int64  `json:"endNs"`
	// Allocs counts heap objects allocated while the span was open,
	// children included, as runtime/metrics reports them (per-P caches
	// are counted when they refill, so single spans are approximate and
	// averages over many are not).
	Allocs uint64 `json:"allocs"`
}

// recorder keeps one goroutine's spans in memory until the run ends. A
// nil *recorder is the untraced mode: every method returns at once and
// allocates nothing.
type recorder struct {
	t0     time.Time
	op     int
	spans  []span
	open   []int
	sample []metrics.Sample
	// overheadNs is the time spent inside begin and end themselves: the
	// direct cost of tracing, timed in the run it burdens. (Comparing an
	// untraced pass with a traced one cannot resolve a few percent on a
	// shared machine whose CPU speed swings by a quarter within a
	// second.)
	overheadNs int64
}

const allocsMetric = "/gc/heap/allocs:objects"

func newRecorder() *recorder {
	return &recorder{
		t0:     time.Now(),
		spans:  make([]span, 0, 1<<16),
		sample: []metrics.Sample{{Name: allocsMetric}},
	}
}

func (r *recorder) allocs() uint64 {
	metrics.Read(r.sample)
	if r.sample[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return r.sample[0].Value.Uint64()
}

// beginOp starts operation op: a root span every layer span of the
// operation nests under.
func (r *recorder) beginOp(op int) int {
	if r == nil {
		return -1
	}
	r.op = op
	return r.begin("op")
}

// begin opens a span under the innermost open one. The span starts
// after the bookkeeping, so its cost stays outside the span.
func (r *recorder) begin(name string) int {
	if r == nil {
		return -1
	}
	entry := r.now()
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{Name: name, Op: r.op, ID: id, Parent: parent, Allocs: r.allocs()})
	r.open = append(r.open, id)
	start := r.now()
	r.spans[id].StartNs = start
	r.overheadNs += start - entry
	return id
}

// end closes span id, which must be the innermost open span. The span
// ends before the bookkeeping.
func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	stop := r.now()
	s := &r.spans[id]
	s.EndNs = stop
	s.Allocs = r.allocs() - s.Allocs
	r.open = r.open[:len(r.open)-1]
	r.overheadNs += r.now() - stop
}

func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

// selfTimes returns, for each span, its duration minus the part of its
// interval that its children cover. Children are clipped to the parent
// and overlapping children are counted once.
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		type interval struct{ lo, hi int64 }
		ivs := make([]interval, 0, len(children[i]))
		for _, c := range children[i] {
			lo, hi := max(spans[c].StartNs, s.StartNs), min(spans[c].EndNs, s.EndNs)
			if hi > lo {
				ivs = append(ivs, interval{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		var covered, reach int64
		for _, iv := range ivs {
			lo := max(iv.lo, reach)
			if iv.hi > lo {
				covered += iv.hi - lo
			}
			reach = max(reach, iv.hi)
		}
		out[i] = s.EndNs - s.StartNs - covered
	}
	return out
}

// layerStat aggregates one layer's spans.
type layerStat struct {
	Calls  int
	SelfNs int64
	Allocs int64
}

// ledger aggregates self time and self allocations per span name. It
// also returns the summed duration of the operation roots, the
// denominator of each layer's share.
func ledger(spans []span) (map[string]*layerStat, int64) {
	self := selfTimes(spans)
	childAllocs := make([]uint64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			childAllocs[s.Parent] += s.Allocs
		}
	}
	out := map[string]*layerStat{}
	var opNs int64
	for i, s := range spans {
		if s.Parent < 0 {
			opNs += s.EndNs - s.StartNs
		}
		st := out[s.Name]
		if st == nil {
			st = &layerStat{}
			out[s.Name] = st
		}
		st.Calls++
		st.SelfNs += self[i]
		st.Allocs += int64(s.Allocs) - int64(childAllocs[i])
	}
	return out, opNs
}

// writeSpans writes spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			_ = f.Close() // the encode error is the one to report
			return fmt.Errorf("writing %s: %w", path, err)
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}
