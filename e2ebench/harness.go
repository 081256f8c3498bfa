package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// env is what every workload run is given.
type env struct {
	bin     string // drevald binary
	dir     string // this run's directory for logs and WALs
	seed    uint64
	seconds int
	client  *http.Client
	t       *tally
	logs    int // daemons launched so far, for log file names
}

// outcome is one untraced run of a workload: the end-to-end metrics.
type outcome struct {
	// throughput is primary work per second: /evaluate answers, records
	// acknowledged, or records recovered.
	throughput float64
	// lat is the primary latency: /evaluate round trips, or the open-loop
	// reader's answers timed from their scheduled send.
	lat        latency
	cpuMsPerOp float64
	peakRSSMB  float64
	setupS     float64
	// readerLag is how late the open-loop reader sent (streaming
	// workloads only).
	readerLag latency
	// clientMsPerOp is the client-visible time of one ledger operation,
	// which the traced run splits into layers.
	clientMsPerOp float64
}

// tally counts operations and failures across a run's goroutines.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
}

// done records one finished operation, failed when err is non-nil.
func (t *tally) done(op string, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err == nil {
		return
	}
	t.failed++
	if t.failed <= 5 {
		fmt.Fprintf(os.Stderr, "e2ebench: %s failed: %v\n", op, err)
	}
}

func (t *tally) counts() (int, int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.attempted, t.failed
}

// launch starts one drevald for this run with its own log file.
func (e *env) launch(ctx context.Context, flags ...string) (*daemon, error) {
	e.logs++
	return launch(ctx, e.bin, filepath.Join(e.dir, fmt.Sprintf("drevald-%d.log", e.logs)), flags...)
}

// coldStarts is the set-up phase, repeated so its median is steady: it
// launches drevald five times, each on state prepare makes fresh and
// with the flags it returns, and times each launch until drevald is
// ready and warmup has run. The last daemon is returned still running;
// the others are stopped.
func coldStarts(ctx context.Context, e *env, prepare func() ([]string, error), warmup func(d *daemon, epoch int)) (*daemon, float64, error) {
	const coldStartCount = 5
	var times []float64
	for {
		flags, err := prepare()
		if err != nil {
			return nil, 0, err
		}
		t0 := time.Now()
		d, err := e.launch(ctx, flags...)
		if err != nil {
			return nil, 0, err
		}
		epoch, err := d.waitReady(ctx, e.client)
		if err != nil {
			d.stop()
			return nil, 0, err
		}
		warmup(d, epoch)
		times = append(times, time.Since(t0).Seconds())
		if len(times) == coldStartCount {
			return d, median(times), nil
		}
		d.stop()
	}
}

// openLoop sends one read every 1/rate seconds from start until stop is
// closed, from the calling goroutine. A read that is due while the
// previous one is still running is sent as soon as it finishes, and
// every read is timed from when it was due, so a stall counts against
// each read it delays. It returns the latencies and how late each read
// was sent, in milliseconds.
func openLoop(ctx context.Context, rate float64, stop <-chan struct{}, read func(due time.Time) error, t *tally) (lat, lag []float64) {
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now()
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * interval)
		select {
		case <-stop:
			return lat, lag
		case <-ctx.Done():
			return lat, lag
		default:
		}
		if wait := time.Until(due); wait > 0 {
			timer := time.NewTimer(wait)
			select {
			case <-stop:
				timer.Stop()
				return lat, lag
			case <-ctx.Done():
				timer.Stop()
				return lat, lag
			case <-timer.C:
			}
		}
		lag = append(lag, ms(time.Since(due)))
		err := read(due)
		t.done("stream read", err)
		if err == nil {
			lat = append(lat, ms(time.Since(due)))
		}
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuAndRSS samples drevald's CPU seconds and peak RSS.
func cpuAndRSS(d *daemon) (float64, float64, error) {
	cpu, err := d.cpuSeconds()
	if err != nil {
		return 0, 0, err
	}
	rss, err := d.peakRSSMB()
	return cpu, rss, err
}
