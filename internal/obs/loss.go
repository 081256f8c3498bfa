package obs

import "sync/atomic"

// RegisterLossCounter exports a monotonic loss count (sink-queue
// overflow drops, eviction counts, anything "we lost N of these") as
// an eagerly-created counter synced by a scrape-time sampler — the
// shape of the wide-event journal's drop counters. Eager creation
// matters: a zero reading is the healthy signal operators alert on
// disappearing.
//
// read returns the source's current cumulative count and whether a
// source exists right now. When it reports false the sampler leaves
// both the counter and its memory of the last reading untouched, so a
// source that disappears and later returns does not double-count. A
// source replaced by a fresh one (lower cumulative count) simply
// pauses the counter until the new count catches up — counters must
// never go backwards.
func RegisterLossCounter(reg *Registry, name, help string, read func() (uint64, bool)) {
	reg.Help(name, help)
	lost := reg.Counter(name)
	var last atomic.Uint64
	reg.RegisterSampler(func() {
		cur, ok := read()
		if !ok {
			return
		}
		prev := last.Swap(cur)
		if cur > prev {
			lost.Add(cur - prev)
		}
	})
}
