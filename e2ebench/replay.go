package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"drnet/internal/traceio"
	"drnet/internal/walog"
)

// replayFrames is the prefilled WAL's length: 10,000 frames of 100
// records, 1M records in all.
const replayFrames = 10_000

// prefill writes the first frames batches of st to a fresh WAL in dir,
// one frame per batch, in drevald's own frame format.
func prefill(dir string, st stream, frames int) error {
	l, _, err := walog.Open(walog.Options{Dir: dir, Fsync: walog.FsyncNever})
	if err != nil {
		return err
	}
	var buf []byte
	for i := range frames {
		buf = traceio.EncodeBatch(buf[:0], st.records(i))
		if _, err := l.Append(buf); err != nil {
			_ = l.Close() // the append error is the one to report
			return err
		}
	}
	return l.Close()
}

// follower is the replay workload's reader: it follows drevald across
// restarts, retrying while a process replays (503) or is being replaced
// (transport errors), and checks every answer against the reference.
type follower struct {
	e       *env
	records int
	ref     reference
	base    atomic.Pointer[string] // the current process's address

	mu      sync.Mutex
	okBase  string    // guarded by mu; the address that last answered correctly
	okDue   time.Time // guarded by mu; when that read fell due
	okFirst time.Time // guarded by mu; when okBase first answered correctly
}

func (f *follower) read(ctx context.Context, due time.Time) error {
	deadline := time.Now().Add(60 * time.Second)
	for {
		b := *f.base.Load()
		r, err := streamedEvaluate(ctx, f.e.client, b, streamRead)
		if err == nil {
			if r.Stream.Epoch != f.records {
				return fmt.Errorf("stream epoch %d, want %d", r.Stream.Epoch, f.records)
			}
			if err := f.ref.check(r, streamedTolerance); err != nil {
				return err
			}
			f.mu.Lock()
			if f.okBase != b {
				f.okFirst = time.Now()
			}
			f.okBase, f.okDue = b, due
			f.mu.Unlock()
			return nil
		}
		var status *statusError
		var transport *url.Error
		replaying := errors.As(err, &status) && status.code == http.StatusServiceUnavailable
		if !replaying && !errors.As(err, &transport) {
			return err
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			return fmt.Errorf("no answer within 60s: %w", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// drained waits until base has correctly answered a read that fell due
// at or after since, and returns when base first answered correctly.
// Reads go out in the order they fall due, so every read due earlier
// has been answered or has failed by then: the backlog the restart
// built up is gone.
func (f *follower) drained(ctx context.Context, base string, since time.Time) time.Time {
	for ctx.Err() == nil {
		f.mu.Lock()
		done, first := f.okBase == base && !f.okDue.Before(since), f.okFirst
		f.mu.Unlock()
		if done {
			return first
		}
		time.Sleep(2 * time.Millisecond)
	}
	return time.Time{}
}

func runReplay(ctx context.Context, e *env, launches int) (*outcome, error) {
	st := newStream(e.seed)
	walDir := filepath.Join(e.dir, "wal")
	records := replayFrames * st.batch
	if err := prefill(walDir, st, replayFrames); err != nil {
		return nil, fmt.Errorf("prefilling the WAL: %w", err)
	}
	ref, err := evalReference(evalBody{Trace: st.prefix(replayFrames), Policy: "best-observed", Options: evalOptions{Clip: readClip}})
	if err != nil {
		return nil, err
	}
	flags := []string{"-wal-dir", walDir, "-fsync", "always"}
	recovered := func(epoch int) {
		var err error
		if epoch != records {
			err = fmt.Errorf("recovered epoch %d, want %d", epoch, records)
		}
		e.t.done("recovery", err)
	}
	d, setup, err := coldStarts(ctx, e,
		func() ([]string, error) { return flags, nil },
		func(d *daemon, epoch int) {
			recovered(epoch)
			e.t.done("stream read", checkStreamed(ctx, e.client, d.base, streamRead, records, &ref))
		})
	if err != nil {
		return nil, err
	}
	f := &follower{e: e, records: records, ref: ref}
	f.base.Store(&d.base)
	stop := make(chan struct{})
	var (
		wg       sync.WaitGroup
		lat, lag []float64
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		lat, lag = openLoop(ctx, readRate, stop, func(due time.Time) error { return f.read(ctx, due) }, e.t)
	}()

	// restart replaces the running drevald with a fresh one on the same
	// WAL and keeps it up until it has served every read that fell due
	// while it was down or replaying, so each restart is seen whole by
	// the reader. The reader is pointed at the new process only once
	// /healthz reports it ready: its first read registers the policy
	// while holding the engine lock /healthz needs, so reading earlier
	// would let registration leak into the replay time.
	var replayS, answerS []float64
	var cpu, rss float64
	restart := func() error {
		d.stop()
		t0 := time.Now()
		next, err := e.launch(ctx, flags...)
		if err != nil {
			return err
		}
		d = next
		epoch, err := d.waitReady(ctx, e.client)
		if err != nil {
			return err
		}
		ready := time.Now()
		replayS = append(replayS, ready.Sub(t0).Seconds())
		recovered(epoch)
		f.base.Store(&d.base)
		firstAnswer := f.drained(ctx, d.base, ready)
		answerS = append(answerS, firstAnswer.Sub(t0).Seconds())
		c, r, err := cpuAndRSS(d)
		cpu += c
		rss = max(rss, r)
		return err
	}
	for range launches {
		if err = restart(); err != nil {
			break
		}
	}
	close(stop)
	wg.Wait()
	d.stop()
	if err != nil {
		return nil, err
	}
	perOp := float64(records / 1000)
	return &outcome{
		throughput:    float64(records) / median(replayS),
		lat:           summarize(lat),
		cpuMsPerOp:    cpu * 1000 / (float64(launches) * perOp),
		peakRSSMB:     rss,
		setupS:        setup,
		readerLag:     summarize(lag),
		clientMsPerOp: median(answerS) * 1000 / perOp,
	}, ctx.Err()
}
