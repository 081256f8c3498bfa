package main

import (
	"encoding/json"

	"drnet/internal/traceio"
)

// rng is a SplitMix64 stream. Every input the suite sends is drawn from
// one, seeded from --seed, so a seed fixes the inputs byte for byte and
// nothing drevald does can perturb them.
type rng uint64

func newRNG(seed uint64, stream uint64) *rng {
	r := rng(seed*0x9e3779b97f4a7c15 ^ (stream+1)*0xbf58476d1ce4e5b9)
	r.next()
	return &r
}

func (r *rng) next() uint64 {
	*r += 0x9e3779b97f4a7c15
	z := uint64(*r)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	return z ^ z>>31
}

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

var decisions = [3]string{"a", "b", "c"}

// population is a fixed set of client contexts with a logging policy
// and mean rewards. Its shape (context count, 3 features, 3 decisions,
// propensities 0.7/0.15/0.15) does not depend on the seed, so every
// seed asks drevald for the same amount of work; the seed picks which
// decision each context favours and what each decision earns. The
// favoured decision earns more, as a deployed policy's would, so the
// best-observed target policy keeps enough support that drevald never
// degrades an answer.
type population struct {
	features [][]float64
	favoured []int
	mean     [][3]float64
}

func newPopulation(seed uint64, contexts int) *population {
	r := newRNG(seed, 1)
	p := &population{
		features: make([][]float64, contexts),
		favoured: make([]int, contexts),
		mean:     make([][3]float64, contexts),
	}
	for i := range p.features {
		// A 10×10×10 grid of quarter-step features: distinct for up to
		// 1000 contexts, and short to print like real measurements.
		p.features[i] = []float64{float64(i%10) / 4, float64(i/10%10) / 4, float64(i/100%10) / 4}
		p.favoured[i] = r.intn(3)
		for d := range p.mean[i] {
			p.mean[i][d] = r.float() / 2
		}
		p.mean[i][p.favoured[i]] += 0.5
	}
	return p
}

// draw logs n records over uniformly drawn contexts. With cover set,
// the first records visit every context once, so a trace at least as
// long as the population has exactly that many distinct contexts.
func (p *population) draw(r *rng, n int, cover bool) []traceio.FlatRecord {
	out := make([]traceio.FlatRecord, n)
	contexts := len(p.features)
	for i := range out {
		c := i
		if !cover || i >= contexts {
			c = r.intn(contexts)
		}
		d, prop := p.favoured[c], 0.7
		if u := r.float(); u >= 0.7 {
			d, prop = (d+1+min(int((u-0.7)/0.15), 1))%3, 0.15
		}
		out[i] = traceio.FlatRecord{
			Features:   p.features[c],
			Decision:   decisions[d],
			Reward:     p.mean[c][d] + 0.5*(r.float()-0.5),
			Propensity: prop,
		}
	}
	return out
}

// evalOptions and evalBody mirror drevald's /evaluate request schema.
type evalOptions struct {
	Clip         float64 `json:"clip,omitempty"`
	Bootstrap    int     `json:"bootstrap,omitempty"`
	Seed         int64   `json:"seed,omitempty"`
	RefreshModel bool    `json:"refreshModel,omitempty"`
}

type evalBody struct {
	Trace   []traceio.FlatRecord `json:"trace"`
	Policy  string               `json:"policy"`
	Options evalOptions          `json:"options"`
}

type ingestBody struct {
	Records []traceio.FlatRecord `json:"records"`
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		// Only finite floats, strings and slices reach here.
		panic(err)
	}
	return b
}

// stream is the record sequence the streaming workloads ingest or
// prefill: batch i is a pure function of (seed, i), so the suite can
// regenerate any prefix for its reference instead of holding it.
type stream struct {
	seed  uint64
	pop   *population
	batch int
}

const (
	streamContexts = 1000
	streamBatch    = 100
)

func newStream(seed uint64) stream {
	return stream{seed: seed, pop: newPopulation(seed, streamContexts), batch: streamBatch}
}

func (s stream) records(i int) []traceio.FlatRecord {
	return s.pop.draw(newRNG(s.seed, uint64(1000+i)), s.batch, false)
}

// body is batch i as an /ingest request body.
func (s stream) body(i int) []byte { return mustJSON(ingestBody{Records: s.records(i)}) }

// prefix returns the first n batches' records in order.
func (s stream) prefix(n int) []traceio.FlatRecord {
	out := make([]traceio.FlatRecord, 0, n*s.batch)
	for i := range n {
		out = append(out, s.records(i)...)
	}
	return out
}
