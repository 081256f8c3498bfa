package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"drnet/internal/biasobs"
	"drnet/internal/changepoint"
	"drnet/internal/obs"
	"drnet/internal/resilience"
	"drnet/internal/slo"
	"drnet/internal/walog"
)

// maxBootstrapResamples caps options.bootstrap so one request cannot
// monopolize the pool indefinitely.
const maxBootstrapResamples = 10000

// config is everything drevald is told at startup: one field per flag
// (the flag's help text documents it), plus maxBodyBytes, which has no
// flag. newServer builds a server from it and nothing changes it after.
type config struct {
	addr, debugAddr, logLevel    string
	workers                      int
	requestTimeout, drainTimeout time.Duration
	maxConcurrent, maxQueue      int

	thresholds         resilience.Thresholds
	fallbackClip       float64
	biasWindows        int
	biasDriftThreshold float64
	degradeOnDrift     bool

	walDir, fsync                       string
	fsyncInterval                       time.Duration
	segmentBytes, ingestMaxBytes        int64
	ingestMaxConcurrent, ingestMaxQueue int
	maxModelAge                         uint64
	biasRefresh                         int

	eventsBuffer               int
	eventsSample, eventsSlowMs float64
	eventsSeed                 uint64
	eventsOut, sloConfig       string
	degradeOnSLOPage           bool

	// maxBodyBytes bounds /evaluate and /diagnose bodies; larger ones
	// get 413.
	maxBodyBytes int64
}

// parseFlags parses drevald's command line. Parsing no arguments gives
// the defaults; validate checks the result.
func parseFlags(args []string) (config, error) {
	c := config{maxBodyBytes: 64 << 20}
	th := resilience.DefaultThresholds()
	fs := flag.NewFlagSet(os.Args[0], flag.ContinueOnError)
	fs.StringVar(&c.addr, "addr", ":8080", "listen address")
	fs.IntVar(&c.workers, "workers", 0, "worker-pool width for per-request bootstrap resampling (0 = GOMAXPROCS)")
	fs.StringVar(&c.debugAddr, "debug-addr", "", "optional second listen address for /debug/pprof, /metrics and /debug/vars (empty = disabled)")
	fs.StringVar(&c.logLevel, "log-level", "info", "log level: debug, info, warn, error")
	fs.DurationVar(&c.requestTimeout, "request-timeout", 60*time.Second, "per-request deadline for /evaluate and /diagnose; the bootstrap stops scheduling work once it expires (0 = no deadline)")
	fs.DurationVar(&c.drainTimeout, "drain-timeout", 10*time.Second, "how long shutdown waits for in-flight requests to finish (must be > 0)")
	fs.IntVar(&c.maxConcurrent, "max-concurrent", 64, "maximum /evaluate and /diagnose requests computing at once (must be >= 1)")
	fs.IntVar(&c.maxQueue, "max-queue", 256, "requests allowed to wait for a compute slot before the server sheds with 429 (0 = no queue)")
	fs.Float64Var(&c.thresholds.ESSRatioFloor, "ess-ratio-floor", th.ESSRatioFloor, "degrade /evaluate responses when ESS/N falls below this (0 = disabled)")
	fs.Float64Var(&c.thresholds.MaxWeightCeiling, "max-weight-ceiling", th.MaxWeightCeiling, "degrade /evaluate responses when the largest importance weight exceeds this (0 = disabled)")
	fs.Float64Var(&c.thresholds.ZeroSupportCap, "zero-support-cap", th.ZeroSupportCap, "degrade /evaluate responses when the zero-support record fraction exceeds this (0 = disabled)")
	fs.Float64Var(&c.fallbackClip, "fallback-clip", 10, "importance-weight clip of the degraded-mode fallback estimator (must be > 0)")
	fs.IntVar(&c.biasWindows, "bias-windows", biasobs.DefaultWindows, "windows the bias observatory slices each request's trace into (0 = observatory disabled)")
	fs.Float64Var(&c.biasDriftThreshold, "bias-drift-threshold", changepoint.DefaultThreshold, "CUSUM decision threshold in sigma units for the observatory's drift alarms (must be > 0)")
	fs.BoolVar(&c.degradeOnDrift, "degrade-on-drift", false, "tag /evaluate responses degraded with a trace_drift reason when a drift alarm fires")
	fs.StringVar(&c.walDir, "wal-dir", "", "directory for the streaming write-ahead log; enables POST /ingest and aggregate-served /evaluate (empty = streaming disabled)")
	fs.StringVar(&c.fsync, "fsync", "always", "WAL durability point: always (ack == durable), interval, or never")
	fs.DurationVar(&c.fsyncInterval, "fsync-interval", 100*time.Millisecond, "background sync period under -fsync interval (must be > 0)")
	fs.Int64Var(&c.segmentBytes, "segment-bytes", 64<<20, "WAL segment rotation threshold in bytes")
	fs.Int64Var(&c.ingestMaxBytes, "ingest-max-bytes", 16<<20, "maximum /ingest body size in bytes (must be >= 1)")
	fs.IntVar(&c.ingestMaxConcurrent, "ingest-max-concurrent", 16, "maximum /ingest batches applying at once (must be >= 1)")
	fs.IntVar(&c.ingestMaxQueue, "ingest-max-queue", 64, "ingest batches allowed to wait before 429 (0 = no queue)")
	fs.Uint64Var(&c.maxModelAge, "max-model-age", 0, "degrade streamed responses whose reward model is more than this many records behind the live epoch (0 = never)")
	fs.IntVar(&c.biasRefresh, "bias-refresh", 0, "rerun the bias observatory over the streamed view every this many ingested records (0 = disabled)")
	fs.IntVar(&c.eventsBuffer, "events-buffer", 1024, "wide events retained in memory for /debug/events (must be >= 1)")
	fs.Float64Var(&c.eventsSample, "events-sample", 1, "fraction of healthy wide events retained; error, degraded and slow events are always kept (must be in [0, 1])")
	fs.Float64Var(&c.eventsSlowMs, "events-slow-ms", 250, "wide events at least this slow are always retained regardless of -events-sample (0 = disabled)")
	fs.Uint64Var(&c.eventsSeed, "events-seed", 1, "seed of the deterministic healthy-event sampler")
	fs.StringVar(&c.eventsOut, "events-out", "", "append every retained wide event as one JSON line (JSONL) to this file (empty = disabled)")
	fs.StringVar(&c.sloConfig, "slo-config", "", "JSON file declaring the SLO objectives and burn-rate windows (empty = built-in defaults)")
	fs.BoolVar(&c.degradeOnSLOPage, "degrade-on-slo-page", false, "tag /evaluate responses degraded with an slo_burn reason while any objective burns at page severity")
	err := fs.Parse(args)
	return c, err
}

// validate reports the first setting drevald cannot run with.
func (c config) validate() error {
	th := c.thresholds
	switch {
	case c.drainTimeout <= 0:
		return fmt.Errorf("-drain-timeout must be > 0, got %v", c.drainTimeout)
	case c.requestTimeout < 0:
		return fmt.Errorf("-request-timeout must be >= 0, got %v", c.requestTimeout)
	case c.maxConcurrent < 1:
		return fmt.Errorf("-max-concurrent must be >= 1, got %d", c.maxConcurrent)
	case c.maxQueue < 0:
		return fmt.Errorf("-max-queue must be >= 0, got %d", c.maxQueue)
	case th.ESSRatioFloor < 0 || th.MaxWeightCeiling < 0 || th.ZeroSupportCap < 0:
		return errors.New("degradation thresholds must be >= 0")
	case c.fallbackClip <= 0:
		return fmt.Errorf("-fallback-clip must be > 0, got %g", c.fallbackClip)
	case c.biasWindows < 0:
		return fmt.Errorf("-bias-windows must be >= 0, got %d", c.biasWindows)
	case c.biasDriftThreshold <= 0:
		return fmt.Errorf("-bias-drift-threshold must be > 0, got %g", c.biasDriftThreshold)
	case c.eventsBuffer < 1:
		return fmt.Errorf("-events-buffer must be >= 1, got %d", c.eventsBuffer)
	case c.eventsSample < 0 || c.eventsSample > 1:
		return fmt.Errorf("-events-sample must be in [0, 1], got %g", c.eventsSample)
	case c.eventsSlowMs < 0:
		return fmt.Errorf("-events-slow-ms must be >= 0, got %g", c.eventsSlowMs)
	case c.ingestMaxBytes < 1:
		return fmt.Errorf("-ingest-max-bytes must be >= 1, got %d", c.ingestMaxBytes)
	case c.ingestMaxConcurrent < 1:
		return fmt.Errorf("-ingest-max-concurrent must be >= 1, got %d", c.ingestMaxConcurrent)
	case c.ingestMaxQueue < 0:
		return fmt.Errorf("-ingest-max-queue must be >= 0, got %d", c.ingestMaxQueue)
	case c.biasRefresh < 0:
		return fmt.Errorf("-bias-refresh must be >= 0, got %d", c.biasRefresh)
	}
	if _, err := obs.ParseLevel(c.logLevel); err != nil {
		return err
	}
	if _, err := walog.ParseFsyncPolicy(c.fsync); err != nil {
		return fmt.Errorf("-fsync: %v", err)
	}
	_, err := c.sloObjectives()
	return err
}

// sloObjectives loads -slo-config, or returns the built-in objectives
// when it is unset.
func (c config) sloObjectives() (slo.Config, error) {
	if c.sloConfig == "" {
		return slo.DefaultConfig(), nil
	}
	doc, err := os.ReadFile(c.sloConfig)
	if err != nil {
		return slo.Config{}, fmt.Errorf("-slo-config: %v", err)
	}
	cfg, err := slo.Parse(doc)
	if err != nil {
		return slo.Config{}, fmt.Errorf("-slo-config: %v", err)
	}
	return cfg, nil
}
