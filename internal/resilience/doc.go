// Package resilience is the repository's failure-handling layer: the
// pieces that let a trace-driven evaluation service degrade loudly
// instead of crashing or stalling when inputs, load or infrastructure
// go bad — the operational counterpart of the paper's §4.1 warning
// that thin-support estimates silently go wrong.
//
// It provides three independent tools, each consumed by a different
// layer of the system:
//
//   - Limiter: admission control for request handlers — a concurrency
//     cap plus a bounded wait queue, so overload is shed with an
//     explicit "retry later" instead of unbounded queueing (drevald
//     fronts /evaluate and /diagnose with one).
//
//   - Thresholds / Check: the graceful-degradation contract — given a
//     request's overlap diagnostics (ESS ratio, weight tail,
//     zero-support fraction), decide whether the estimate must be
//     flagged degraded and report machine-readable reasons, so callers
//     can return a robust fallback alongside the requested estimate.
//
//   - FaultPlan / Inject: deterministic, seed-driven fault injection.
//     Instrumented points in traceio readers, worker-pool tasks and
//     HTTP handlers call Inject(point); with no plan active that is a
//     single atomic load, and with a plan active the outcome of hit n
//     at a point is a pure function of (seed, point, n), so chaos
//     tests are reproducible.
//
// The package depends only on the standard library and internal/mathx
// and is safe for concurrent use throughout.
package resilience
