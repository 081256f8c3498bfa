package wideevent

import (
	"encoding/json"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"drnet/internal/mathx"
)

// Options configures a Journal.
type Options struct {
	// Capacity is the ring size: how many retained events are held for
	// /debug/events (minimum 1). Old events are overwritten once the
	// ring wraps, bounding memory regardless of traffic.
	Capacity int
	// SampleRate is the keep probability for healthy events (no error,
	// status < 400, not degraded, not slow). >= 1 keeps everything,
	// 0 keeps only the tail (errors, degraded, slow). Error, degraded
	// and slow events are ALWAYS kept — the tail bias that makes the
	// journal useful at low sample rates.
	SampleRate float64
	// SlowMs marks a healthy event "slow" (always kept) at or above
	// this total duration; 0 disables the slow criterion.
	SlowMs float64
	// Seed drives the sampling RNG. Identical seeds and identical
	// emission sequences make identical retention decisions, so tests
	// can assert journal contents byte for byte.
	Seed uint64
	// Now is the journal clock; nil means time.Now. Everything
	// time-shaped in an event — Time, DurationMs, PhaseMs — flows
	// through it, so a fixed clock yields byte-deterministic events.
	Now func() time.Time
}

// Journal is the lock-free wide-event ring: emission is an atomic
// sequence bump plus an atomic pointer store, cheap enough for every
// request path. An optional JSONL sink receives each retained event as
// one line via a non-blocking bounded queue and a single background
// drainer; observers (the SLO engine, span metrics) see every emitted
// event, retained or sampled out.
type Journal struct {
	opts  Options
	slots []atomic.Pointer[Event]
	next  atomic.Uint64

	emitted    atomic.Uint64
	sampledOut atomic.Uint64
	healthyN   atomic.Uint64

	observers atomic.Pointer[[]func(*Event)]

	sinkMu      sync.Mutex                     // serializes SetSink swaps, not line writes
	sink        atomic.Pointer[eventSinkState] // guarded by sinkMu (writes)
	sinkDropped atomic.Uint64
}

// NewJournal builds a journal. Invalid options are clamped: capacity
// to at least 1, a negative sample rate to 0.
func NewJournal(opts Options) *Journal {
	if opts.Capacity < 1 {
		opts.Capacity = 1
	}
	if opts.SampleRate < 0 {
		opts.SampleRate = 0
	}
	if opts.Now == nil {
		opts.Now = time.Now
	}
	return &Journal{
		opts:  opts,
		slots: make([]atomic.Pointer[Event], opts.Capacity),
	}
}

// now reads the journal clock; nil-safe so Builders detached from a
// journal (nil receiver paths) never dereference one.
func (j *Journal) now() time.Time {
	if j == nil {
		return time.Time{}
	}
	return j.opts.Now()
}

// Begin opens the request's Builder. Nil-safe: a nil journal returns
// a nil Builder whose methods all no-op, so disabled journalling
// costs one pointer check per annotation.
func (j *Journal) Begin(requestID, route string) *Builder {
	if j == nil {
		return nil
	}
	t := j.now()
	return &Builder{j: j, start: t, ev: Event{Time: t, RequestID: requestID, Route: route}}
}

// Observe registers fn to receive EVERY emitted event — including
// ones tail-sampling then discards — synchronously on the emitting
// goroutine. Register observers before serving traffic; fn must be
// safe for concurrent calls.
func (j *Journal) Observe(fn func(*Event)) {
	if j == nil || fn == nil {
		return
	}
	for {
		old := j.observers.Load()
		var next []func(*Event)
		if old != nil {
			next = append(next, *old...)
		}
		next = append(next, fn)
		if j.observers.CompareAndSwap(old, &next) {
			return
		}
	}
}

// emit commits one finished event: observers first (they see the
// unsampled stream), then the tail-biased retention decision, then
// the ring store and the optional sink hand-off.
//
//lint:hot perrecord
func (j *Journal) emit(ev *Event) {
	if j == nil || ev == nil {
		return
	}
	j.emitted.Add(1)
	if obs := j.observers.Load(); obs != nil {
		for _, fn := range *obs {
			fn(ev)
		}
	}
	if !j.keep(ev) {
		j.sampledOut.Add(1)
		return
	}
	seq := j.next.Add(1) - 1
	ev.Seq = seq
	j.slots[seq%uint64(len(j.slots))].Store(ev)
	if st := j.sink.Load(); st != nil {
		if b, err := json.Marshal(ev); err == nil {
			select {
			//lint:allow hotalloc sink path only runs when -events-out is set; Marshal already allocated b and the newline append reuses its spare capacity
			case st.ch <- append(b, '\n'):
			default:
				j.sinkDropped.Add(1)
			}
		}
	}
}

// keep is the tail-biased retention policy: the whole point of the
// journal is that the events worth debugging — errors, degraded
// answers, slow requests — are never the ones sampled away.
func (j *Journal) keep(ev *Event) bool {
	if ev.Error != "" || ev.Status >= 400 || ev.Degraded {
		return true
	}
	if j.opts.SlowMs > 0 && ev.DurationMs >= j.opts.SlowMs {
		return true
	}
	if j.opts.SampleRate >= 1 {
		return true
	}
	if j.opts.SampleRate <= 0 {
		return false
	}
	// Deterministic draw: the n-th healthy event's fate depends only
	// on (seed, n), so identical request sequences retain identical
	// sets at any worker count that preserves emission order.
	n := j.healthyN.Add(1)
	return unitFloat(j.opts.Seed, n) < j.opts.SampleRate
}

// unitFloat maps (seed, n) to a uniform [0,1) draw via the SplitMix64
// finalizer — the same generator the repo's synthetic workloads use,
// chosen for determinism, not cryptography.
func unitFloat(seed, n uint64) float64 {
	return float64(mathx.SplitMix64(seed+n*0x9e3779b97f4a7c15)>>11) / (1 << 53)
}

// Events returns the retained events in commit order (oldest first).
// Concurrent emitters may overwrite slots during the snapshot; each
// returned event is internally consistent because slots hold
// immutable pointers.
func (j *Journal) Events() []*Event {
	if j == nil {
		return nil
	}
	out := make([]*Event, 0, len(j.slots))
	for i := range j.slots {
		if p := j.slots[i].Load(); p != nil {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Seq < out[b].Seq })
	return out
}

// Stats is the journal's health snapshot, surfaced on /healthz and
// /debug/vars: Emitted counts every finished request, Recorded the
// retained ones, SampledOut the healthy events the tail bias
// discarded, SinkDropped the JSONL lines lost to a slow sink.
type Stats struct {
	Emitted     uint64 `json:"emitted"`
	Recorded    uint64 `json:"recorded"`
	SampledOut  uint64 `json:"sampledOut"`
	SinkDropped uint64 `json:"sinkDropped"`
	Buffered    int    `json:"buffered"`
	Capacity    int    `json:"capacity"`
}

// Stats snapshots the journal counters; nil-safe (all zeros).
func (j *Journal) Stats() Stats {
	if j == nil {
		return Stats{}
	}
	recorded := j.next.Load()
	buffered := int(recorded)
	if buffered > len(j.slots) {
		buffered = len(j.slots)
	}
	return Stats{
		Emitted:     j.emitted.Load(),
		Recorded:    recorded,
		SampledOut:  j.sampledOut.Load(),
		SinkDropped: j.sinkDropped.Load(),
		Buffered:    buffered,
		Capacity:    len(j.slots),
	}
}

// SinkDropped reports JSONL lines discarded because the sink queue
// was full; nil-safe for the metrics sampler.
func (j *Journal) SinkDropped() uint64 {
	if j == nil {
		return 0
	}
	return j.sinkDropped.Load()
}

// eventSinkBufferLines bounds the drainer queue; lines past it are
// dropped and counted.
const eventSinkBufferLines = 1024

// eventSinkState is one installed sink: queue, quit signal, and done
// closed when the drainer has flushed and exited.
type eventSinkState struct {
	ch   chan []byte
	quit chan struct{}
	done chan struct{}
}

func (st *eventSinkState) drain(w func(line []byte)) {
	defer close(st.done)
	for {
		select {
		case line := <-st.ch:
			w(line)
		case <-st.quit:
			for {
				select {
				case line := <-st.ch:
					w(line)
				default:
					return
				}
			}
		}
	}
}

// SetSink installs (or, with nil, removes) the JSONL export sink. It
// never blocks a request: lines are marshalled on the emitting
// goroutine, written serially by one background drainer, and dropped
// (counted) when the queue is full. Replacing or removing a sink
// flushes the old queue; after SetSink(nil) returns, every delivered
// line has been written.
func (j *Journal) SetSink(w func(line []byte)) {
	if j == nil {
		return
	}
	j.sinkMu.Lock()
	defer j.sinkMu.Unlock()
	var st *eventSinkState
	if w != nil {
		st = &eventSinkState{
			ch:   make(chan []byte, eventSinkBufferLines),
			quit: make(chan struct{}),
			done: make(chan struct{}),
		}
		go st.drain(w)
	}
	if old := j.sink.Swap(st); old != nil {
		close(old.quit)
		<-old.done
	}
}
