package parallel

import (
	"fmt"
	"time"

	"drnet/internal/obs"
	"drnet/internal/resilience"
)

// Pool instrumentation on the process-wide obs registry. A "task" is
// one chunk claimed from a ForEachCtx dispatch (every Times/TimesCtx
// call and every estimator or bootstrap fan-out lands here). All
// updates are atomics on cached pointers, so instrumentation cannot
// reorder work or touch the sharded RNG streams — determinism is
// untouched.
var (
	poolTasks       = obs.Default.Counter("obs_pool_tasks_total")
	poolTaskSeconds = obs.Default.Histogram("obs_pool_task_seconds", obs.TimeBuckets)
	poolActive      = obs.Default.Gauge("obs_pool_active_workers")
	poolQueue       = obs.Default.Gauge("obs_pool_queue_depth")
	poolWorkers     = obs.Default.Gauge("obs_pool_default_workers")
	poolCancelled   = obs.Default.Counter("obs_pool_cancelled_chunks_total")
	poolPanics      = obs.Default.Counter("obs_pool_panics_total")
)

func init() {
	obs.Default.Help("obs_pool_tasks_total", "Chunks executed by the shared worker pool.")
	obs.Default.Help("obs_pool_task_seconds", "Per-chunk execution time on the worker pool.")
	obs.Default.Help("obs_pool_active_workers", "Worker goroutines currently running pool chunks.")
	obs.Default.Help("obs_pool_queue_depth", "Chunks dispatched but not yet claimed by a worker.")
	obs.Default.Help("obs_pool_default_workers", "Configured default worker count (SetDefaultWorkers; 0 resolves to GOMAXPROCS).")
	obs.Default.Help("obs_pool_cancelled_chunks_total", "Chunks skipped because their dispatch's context was cancelled.")
	obs.Default.Help("obs_pool_panics_total", "Panics recovered inside pool tasks and converted to task errors.")
	poolWorkers.Set(float64(DefaultWorkers()))
}

// recordTask times fn as one pool task. A panic inside the task is
// recovered and converted into a task error — one request's bug (or an
// injected chaos panic) must fail that dispatch, not kill the process.
// The resilience injection point runs inside the recovery scope, so
// injected panics exercise the same path as real ones.
func recordTask(fn func() error) (err error) {
	start := time.Now()
	defer func() {
		if p := recover(); p != nil {
			poolPanics.Inc()
			err = fmt.Errorf("parallel: recovered panic in pool task: %v", p)
		}
		poolTaskSeconds.Observe(time.Since(start).Seconds())
		poolTasks.Inc()
	}()
	if err := resilience.Inject(resilience.PointPoolTask); err != nil {
		return err
	}
	return fn()
}
