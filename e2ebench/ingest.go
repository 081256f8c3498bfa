package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"
)

const (
	// ingestWarmup batches are acked, and the reader's policy registered,
	// before measuring.
	ingestWarmup = 300
	// readRate is the open-loop reader's streamed /evaluate rate.
	readRate = 100
	// readClip is the reader's importance-weight clip; with the policy it
	// names the streamed aggregate drevald keeps.
	readClip = 10
)

var (
	streamRead    = mustJSON(evalBody{Policy: "best-observed", Options: evalOptions{Clip: readClip}})
	streamRefresh = mustJSON(evalBody{Policy: "best-observed", Options: evalOptions{Clip: readClip, RefreshModel: true}})
)

// ingestBatch posts one /ingest body of size records and checks the
// ack: size durable records taking the epoch to exactly want.
func ingestBatch(ctx context.Context, c *http.Client, base string, body []byte, size, want int) error {
	resp, err := postOK(ctx, c, base+"/ingest", body)
	if err != nil {
		return err
	}
	var a ingestReply
	if err := json.Unmarshal(resp, &a); err != nil {
		return err
	}
	if a.Acked != size || !a.Durable || a.Epoch != want {
		return fmt.Errorf("ack {acked %d, durable %v, epoch %d}, want {%d, true, %d}", a.Acked, a.Durable, a.Epoch, size, want)
	}
	return nil
}

// streamedEvaluate posts an empty-trace /evaluate and decodes the
// answer, which must come from the stream.
func streamedEvaluate(ctx context.Context, c *http.Client, base string, body []byte) (evalReply, error) {
	resp, err := postOK(ctx, c, base+"/evaluate", body)
	if err != nil {
		return evalReply{}, err
	}
	var r evalReply
	if err := json.Unmarshal(resp, &r); err != nil {
		return r, err
	}
	if r.Stream == nil {
		return r, errors.New("answer was not served from the stream")
	}
	return r, nil
}

// epochReader checks the reader's answers while a writer runs: each
// must be at a whole number of batches, never older than the one
// before.
type epochReader struct {
	last int
}

func (r *epochReader) check(got evalReply, batch int) error {
	e := got.Stream.Epoch
	if e%batch != 0 || e < r.last {
		return fmt.Errorf("stream epoch %d after %d", e, r.last)
	}
	r.last = e
	return nil
}

func runIngest(ctx context.Context, e *env, perSecond int) (*outcome, error) {
	st := newStream(e.seed)
	walDir := filepath.Join(e.dir, "wal")
	prepare := func() ([]string, error) {
		if err := os.RemoveAll(walDir); err != nil {
			return nil, err
		}
		return []string{"-wal-dir", walDir, "-fsync", "always"}, nil
	}
	warmup := func(d *daemon, _ int) {
		for i := range ingestWarmup {
			e.t.done("ingest", ingestBatch(ctx, e.client, d.base, st.body(i), st.batch, (i+1)*st.batch))
		}
		e.t.done("stream read", checkStreamed(ctx, e.client, d.base, streamRead, ingestWarmup*st.batch, nil))
	}
	d, setup, err := coldStarts(ctx, e, prepare, warmup)
	if err != nil {
		return nil, err
	}
	defer d.stop()

	n := perSecond * e.seconds
	// The writer's bodies are generated up front, so the measured phase
	// times drevald and not the generator.
	bodies := make([][]byte, n)
	for i := range bodies {
		bodies[i] = st.body(ingestWarmup + i)
	}
	cpu0, _, err := cpuAndRSS(d)
	if err != nil {
		return nil, err
	}
	stop := make(chan struct{})
	var (
		wg       sync.WaitGroup
		lat, lag []float64
		epochs   = &epochReader{last: ingestWarmup * st.batch}
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		lat, lag = openLoop(ctx, readRate, stop, func(time.Time) error {
			r, err := streamedEvaluate(ctx, e.client, d.base, streamRead)
			if err != nil {
				return err
			}
			return epochs.check(r, st.batch)
		}, e.t)
	}()
	acks := make([]float64, 0, n)
	start := time.Now()
	for i, body := range bodies {
		if ctx.Err() != nil {
			break
		}
		t0 := time.Now()
		err := ingestBatch(ctx, e.client, d.base, body, st.batch, (ingestWarmup+i+1)*st.batch)
		e.t.done("ingest", err)
		if err == nil {
			acks = append(acks, ms(time.Since(t0)))
		}
	}
	wall := time.Since(start)
	close(stop)
	wg.Wait()
	cpu1, rss, err := cpuAndRSS(d)
	if err != nil {
		return nil, err
	}

	// The refreshed model must reproduce the batch evaluation of every
	// record ingested.
	total := ingestWarmup + n
	ref, err := evalReference(evalBody{Trace: st.prefix(total), Policy: "best-observed", Options: evalOptions{Clip: readClip}})
	if err != nil {
		return nil, err
	}
	e.t.done("refreshed stream read", checkStreamed(ctx, e.client, d.base, streamRefresh, total*st.batch, &ref))

	ackLat := summarize(acks)
	fmt.Fprintf(os.Stderr, "e2ebench: ingest acks %s\n", ackLat)
	return &outcome{
		throughput:    float64(len(acks)*st.batch) / wall.Seconds(),
		lat:           summarize(lat),
		cpuMsPerOp:    (cpu1 - cpu0) * 1000 / float64(n),
		peakRSSMB:     rss,
		setupS:        setup,
		readerLag:     summarize(lag),
		clientMsPerOp: ackLat.P50,
	}, ctx.Err()
}

// checkStreamed posts a streamed read and requires the answer to cover
// exactly epoch records and, when ref is not nil, to match it.
func checkStreamed(ctx context.Context, c *http.Client, base string, body []byte, epoch int, ref *reference) error {
	r, err := streamedEvaluate(ctx, c, base, body)
	if err != nil {
		return err
	}
	if r.Stream.Epoch != epoch {
		return fmt.Errorf("stream epoch %d, want %d", r.Stream.Epoch, epoch)
	}
	if ref == nil {
		return nil
	}
	return ref.check(r, streamedTolerance)
}
