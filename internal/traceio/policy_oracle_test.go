package traceio

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"drnet/internal/core"
)

// oracleBestObserved is the map-based best-observed that ParsePolicy
// ran before the policy was derived from the view: per-context cells
// in first-logged order, a strict > scan from -1e300, and a global
// group for unseen contexts.
func oracleBestObserved(trace core.Trace[FlatContext, string]) func(FlatContext) string {
	type cell struct {
		decision string
		sum      float64
		count    int
	}
	type group struct {
		cells map[string]*cell
		order []*cell // first-logged order
	}
	newGroup := func() *group { return &group{cells: map[string]*cell{}} }
	add := func(g *group, d string, r float64) {
		c := g.cells[d]
		if c == nil {
			c = &cell{decision: d}
			g.cells[d] = c
			g.order = append(g.order, c)
		}
		c.sum += r
		c.count++
	}
	best := func(g *group) string {
		bestD, bestV := "", -1e300
		for _, c := range g.order {
			if v := c.sum / float64(c.count); v > bestV {
				bestV, bestD = v, c.decision
			}
		}
		return bestD
	}
	groups := make(map[string]*group)
	global := newGroup()
	for _, rec := range trace {
		k := rec.Context.Key()
		g := groups[k]
		if g == nil {
			g = newGroup()
			groups[k] = g
		}
		add(g, rec.Decision, rec.Reward)
		add(global, rec.Decision, rec.Reward)
	}
	argmax := make(map[string]string, len(groups))
	for k, g := range groups {
		argmax[k] = best(g)
	}
	globalBest := best(global)
	return func(c FlatContext) string {
		if d, ok := argmax[c.Key()]; ok {
			return d
		}
		return globalBest
	}
}

// TestBestObservedMatchesOracle: over random traces, the policy derived
// from the view chooses what the map-based oracle chooses for every
// logged context and for unseen ones, and is pure.
func TestBestObservedMatchesOracle(t *testing.T) {
	labels := []string{"alpha", "b", "c3", "delta", "e"}
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(120)
		contexts := 1 + rng.Intn(12)
		decisions := 1 + rng.Intn(len(labels))
		// Rewards from a few levels make ties common; some seeds push
		// every mean below the -1e300 floor, or give each context one
		// decision only.
		levels := []float64{0, 0.5, 1, 2}
		switch seed % 5 {
		case 1:
			levels = []float64{-2e300, -1.5e300, -1e301}
		case 2:
			levels = []float64{1, 1}
		}
		singleDecision := seed%7 == 3
		var tr core.Trace[FlatContext, string]
		for i := 0; i < n; i++ {
			c := rng.Intn(contexts)
			d := labels[rng.Intn(decisions)]
			if singleDecision {
				d = labels[c%decisions]
			}
			tr = append(tr, core.Record[FlatContext, string]{
				Context:    FlatContext{Features: []float64{float64(c), float64(c % 3)}},
				Decision:   d,
				Reward:     levels[rng.Intn(len(levels))] + float64(rng.Intn(2))*0.25,
				Propensity: 0.5,
			})
		}
		oracle := oracleBestObserved(tr)
		got, err := ParsePolicy("best-observed", tr)
		if err != nil {
			t.Fatal(err)
		}
		// The estimators read the policy by context code over its own
		// view; they must see the oracle's choices there too.
		view, err := core.NewTraceViewKeyed(tr, FlatContext.Key)
		if err != nil {
			t.Fatal(err)
		}
		derived, err := ParsePolicyView("best-observed", view)
		if err != nil {
			t.Fatal(err)
		}
		ref := core.DeterministicPolicy[FlatContext, string]{Choose: oracle}
		model := core.FitTableView(view)
		gotDM, err1 := core.DirectMethodView(view, derived, model)
		wantDM, err2 := core.DirectMethodView(view, ref, model)
		gotIPS, _ := core.IPSView(view, derived, core.IPSOptions{})
		wantIPS, _ := core.IPSView(view, ref, core.IPSOptions{})
		if err1 != nil || err2 != nil || gotDM != wantDM || gotIPS != wantIPS {
			t.Fatalf("seed %d: estimates over the view differ: DM %+v (%v) vs %+v (%v), IPS %+v vs %+v",
				seed, gotDM, err1, wantDM, err2, gotIPS, wantIPS)
		}
		probe := []FlatContext{{Features: []float64{-1, -1}}, {}}
		for c := 0; c < contexts; c++ {
			probe = append(probe, FlatContext{Features: []float64{float64(c), float64(c % 3)}})
		}
		for _, c := range probe {
			want := oracle(c)
			first := got.Distribution(c)
			if !reflect.DeepEqual(first, []core.Weighted[string]{{Decision: want, Prob: 1}}) {
				t.Fatalf("seed %d context %v: derived policy gives %v, oracle %q", seed, c.Features, first, want)
			}
			// Purity: asking again gives the same weights.
			if again := got.Distribution(c); !reflect.DeepEqual(again, first) {
				t.Fatalf("seed %d context %v: second query %v, first %v", seed, c.Features, again, first)
			}
		}
	}
}

// TestBestObservedTieFollowsContextOrder pins the tie rule on a trace
// where a context logs decisions in the reverse of the global order:
// its tie goes to the decision it logged first, the fallback's to the
// decision the trace logged first.
func TestBestObservedTieFollowsContextOrder(t *testing.T) {
	rec := func(f float64, d string, r float64) core.Record[FlatContext, string] {
		return core.Record[FlatContext, string]{Context: FlatContext{Features: []float64{f}}, Decision: d, Reward: r, Propensity: 0.5}
	}
	tr := core.Trace[FlatContext, string]{
		rec(0, "x", 1), rec(0, "y", 1),
		rec(1, "y", 3), rec(1, "x", 3),
	}
	p, err := ParsePolicy("best-observed", tr)
	if err != nil {
		t.Fatal(err)
	}
	for f, want := range map[float64]string{0: "x", 1: "y", 9: "x"} {
		if got := p.Distribution(FlatContext{Features: []float64{f}})[0].Decision; got != want {
			t.Errorf("context %v: chose %q, want %q", f, got, want)
		}
	}
	if got := oracleBestObserved(tr)(FlatContext{Features: []float64{1}}); got != "y" {
		t.Fatalf("oracle chose %q for context 1, want y", got)
	}
}

// TestParsedPoliciesArePure: the policies ParsePolicyView builds answer
// a context the same way every time it is asked, bit for bit and in the
// same order, with a valid distribution, as the view tables and
// StreamEval assume when they cache one answer per context.
func TestParsedPoliciesArePure(t *testing.T) {
	// Fourteen contexts, each logged eight or nine times.
	labels := []string{"a", "b", "c"}
	var tr core.Trace[FlatContext, string]
	for i := 0; i < 120; i++ {
		tr = append(tr, core.Record[FlatContext, string]{
			Context:    FlatContext{Features: []float64{float64(i % 7), float64(i % 2)}},
			Decision:   labels[i%3],
			Reward:     float64(i%5) / 4,
			Propensity: 1.0 / 3,
		})
	}
	view, err := core.NewTraceViewKeyed(tr, FlatContext.Key)
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []string{"constant:b", "best-observed"} {
		p, err := ParsePolicyView(spec, view)
		if err != nil {
			t.Fatal(err)
		}
		first := make(map[string][]core.Weighted[string])
		for i, rec := range tr {
			a, b := p.Distribution(rec.Context), p.Distribution(rec.Context)
			if err := core.ValidateDistribution(a); err != nil {
				t.Fatalf("%s: record %d: %v", spec, i, err)
			}
			key := rec.Context.Key()
			want, seen := first[key]
			if !seen {
				want = append([]core.Weighted[string](nil), a...)
				first[key] = want
			}
			if !sameWeights(a, want) || !sameWeights(b, want) {
				t.Fatalf("%s: record %d, context %v: answers %v and %v, first answer %v", spec, i, rec.Context.Features, a, b, want)
			}
		}
	}
}

// sameWeights reports whether two distributions list the same
// decisions in the same order with bit-identical probabilities.
func sameWeights(a, b []core.Weighted[string]) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Decision != b[i].Decision || math.Float64bits(a[i].Prob) != math.Float64bits(b[i].Prob) {
			return false
		}
	}
	return true
}
