package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// evalSpec shapes one batch-evaluation workload: closed-loop POST
// /evaluate requests round-robin over evalPayloads distinct payloads,
// so a response cache would gain nothing.
type evalSpec struct {
	records   int
	contexts  int
	bootstrap int
	// perSecond is measured requests per second of --seconds; the count
	// is fixed by --seconds so every commit does the same work.
	perSecond int
}

const (
	evalPayloads = 8
	evalClients  = 2
	evalWarmup   = 20
)

// evalInputs generates the payloads and their references.
func (s evalSpec) inputs(seed uint64) ([]evalBody, [][]byte, []reference, error) {
	pop := newPopulation(seed, s.contexts)
	bodies := make([]evalBody, evalPayloads)
	raw := make([][]byte, evalPayloads)
	refs := make([]reference, evalPayloads)
	for i := range bodies {
		b := evalBody{Trace: pop.draw(newRNG(seed, uint64(10+i)), s.records, true), Policy: "best-observed"}
		if s.bootstrap > 0 {
			b.Options = evalOptions{Bootstrap: s.bootstrap, Seed: int64(i + 1)}
		}
		ref, err := evalReference(b)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("reference for payload %d: %w", i, err)
		}
		bodies[i], raw[i], refs[i] = b, mustJSON(b), ref
	}
	return bodies, raw, refs, nil
}

// evaluate posts one payload and checks the answer against its
// reference bit for bit.
func evaluate(ctx context.Context, c *http.Client, base string, body []byte, ref reference) error {
	resp, err := postOK(ctx, c, base+"/evaluate", body)
	if err != nil {
		return err
	}
	var r evalReply
	if err := json.Unmarshal(resp, &r); err != nil {
		return err
	}
	return ref.check(r, 0)
}

// driveEval sends requests [from, from+n) from evalClients closed-loop
// goroutines; request k carries payload k mod len(raw). It returns
// the latencies of the correct answers in milliseconds and the wall
// time.
func driveEval(ctx context.Context, e *env, base string, raw [][]byte, refs []reference, from, n int) ([]float64, time.Duration) {
	var (
		next atomic.Int64
		mu   sync.Mutex
		lat  = make([]float64, 0, n)
		wg   sync.WaitGroup
	)
	next.Store(int64(from))
	start := time.Now()
	for range evalClients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				k := int(next.Add(1) - 1)
				if k >= from+n {
					return
				}
				p := k % len(raw)
				t0 := time.Now()
				err := evaluate(ctx, e.client, base, raw[p], refs[p])
				d := ms(time.Since(t0))
				e.t.done("evaluate", err)
				if err == nil {
					mu.Lock()
					lat = append(lat, d)
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return lat, time.Since(start)
}

func runEval(ctx context.Context, e *env, s evalSpec) (*outcome, error) {
	_, raw, refs, err := s.inputs(e.seed)
	if err != nil {
		return nil, err
	}
	d, setup, err := coldStarts(ctx, e,
		func() ([]string, error) { return nil, nil },
		func(d *daemon, _ int) { driveEval(ctx, e, d.base, raw, refs, 0, evalWarmup) })
	if err != nil {
		return nil, err
	}
	defer d.stop()
	n := s.perSecond * e.seconds
	cpu0, _, err := cpuAndRSS(d)
	if err != nil {
		return nil, err
	}
	lat, wall := driveEval(ctx, e, d.base, raw, refs, evalWarmup, n)
	cpu1, rss, err := cpuAndRSS(d)
	if err != nil {
		return nil, err
	}
	l := summarize(lat)
	return &outcome{
		throughput:    float64(len(lat)) / wall.Seconds(),
		lat:           l,
		cpuMsPerOp:    (cpu1 - cpu0) * 1000 / float64(n),
		peakRSSMB:     rss,
		setupS:        setup,
		clientMsPerOp: l.P50,
	}, ctx.Err()
}
