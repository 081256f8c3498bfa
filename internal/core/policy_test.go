package core

import (
	"math"
	"testing"
)

func TestDeterministicPolicy(t *testing.T) {
	p := DeterministicPolicy[int, string]{Choose: func(c int) string {
		if c > 0 {
			return "up"
		}
		return "down"
	}}
	dist := p.Distribution(5)
	if len(dist) != 1 || dist[0].Decision != "up" || dist[0].Prob != 1 {
		t.Fatalf("bad distribution %v", dist)
	}
	if Prob[int, string](p, -1, "down") != 1 {
		t.Fatal("Prob should be 1 on the chosen decision")
	}
	if Prob[int, string](p, -1, "up") != 0 {
		t.Fatal("Prob should be 0 off-support")
	}
}

func TestUniformPolicy(t *testing.T) {
	p := UniformPolicy[int, int]{Decisions: []int{1, 2, 3, 4}}
	dist := p.Distribution(0)
	if err := ValidateDistribution(dist); err != nil {
		t.Fatal(err)
	}
	for _, w := range dist {
		if w.Prob != 0.25 {
			t.Fatalf("prob = %g, want 0.25", w.Prob)
		}
	}
}

func TestEpsilonGreedyPolicy(t *testing.T) {
	p := EpsilonGreedyPolicy[int, int]{
		Base:      func(int) int { return 2 },
		Decisions: []int{1, 2, 3},
		Epsilon:   0.3,
	}
	dist := p.Distribution(0)
	if err := ValidateDistribution(dist); err != nil {
		t.Fatal(err)
	}
	if got := Prob[int, int](p, 0, 2); !almostEqual(got, 0.7+0.1, 1e-12) {
		t.Fatalf("greedy prob = %g, want 0.8", got)
	}
	if got := Prob[int, int](p, 0, 1); !almostEqual(got, 0.1, 1e-12) {
		t.Fatalf("explore prob = %g, want 0.1", got)
	}
}

func TestEpsilonGreedyBaseOutsideDecisions(t *testing.T) {
	p := EpsilonGreedyPolicy[int, int]{
		Base:      func(int) int { return 99 },
		Decisions: []int{1, 2},
		Epsilon:   0.2,
	}
	dist := p.Distribution(0)
	if err := ValidateDistribution(dist); err != nil {
		t.Fatal(err)
	}
	if got := Prob[int, int](p, 0, 99); !almostEqual(got, 0.8, 1e-12) {
		t.Fatalf("outside base prob = %g, want 0.8", got)
	}
}

func TestMixturePolicy(t *testing.T) {
	a := DeterministicPolicy[int, int]{Choose: func(int) int { return 1 }}
	b := DeterministicPolicy[int, int]{Choose: func(int) int { return 2 }}
	m := MixturePolicy[int, int]{A: a, B: b, Alpha: 0.3}
	dist := m.Distribution(0)
	if err := ValidateDistribution(dist); err != nil {
		t.Fatal(err)
	}
	if got := Prob[int, int](m, 0, 1); !almostEqual(got, 0.3, 1e-12) {
		t.Fatalf("P(1) = %g, want 0.3", got)
	}
	if got := Prob[int, int](m, 0, 2); !almostEqual(got, 0.7, 1e-12) {
		t.Fatalf("P(2) = %g, want 0.7", got)
	}
}

func TestMixturePolicyOverlappingSupport(t *testing.T) {
	u := UniformPolicy[int, int]{Decisions: []int{1, 2}}
	m := MixturePolicy[int, int]{A: u, B: u, Alpha: 0.5}
	dist := m.Distribution(0)
	if len(dist) != 2 {
		t.Fatalf("overlapping support should merge, got %v", dist)
	}
	if err := ValidateDistribution(dist); err != nil {
		t.Fatal(err)
	}
}

// TestPoliciesArePure is the contract the view tables and StreamEval
// rely on when they cache one Distribution per context: a policy
// answers a context the same way every time it is asked, bit for bit
// and in the same order, with a valid distribution.
func TestPoliciesArePure(t *testing.T) {
	decisions := []int{0, 1, 2}
	base := func(c float64) int { return int(c) % 3 }
	model := RewardFunc[float64, int](func(c float64, d int) float64 { return c * float64(d%2) })
	greedy := EpsilonGreedyPolicy[float64, int]{Base: base, Decisions: decisions, Epsilon: 0.3}
	uniform := UniformPolicy[float64, int]{Decisions: decisions}
	cases := []struct {
		name string
		p    Policy[float64, int]
	}{
		{"deterministic", DeterministicPolicy[float64, int]{Choose: base}},
		{"uniform", uniform},
		{"epsilon-greedy", greedy},
		{"mixture", MixturePolicy[float64, int]{A: greedy, B: uniform, Alpha: 0.7}},
		{"safe-exploration", SafeExplorationPolicy[float64, int]{Base: base, Decisions: decisions, Model: model, Epsilon: 0.2, MaxRegret: 0.5}},
	}
	// Nine contexts, each logged about 22 times.
	var tr Trace[float64, int]
	for i := 0; i < 200; i++ {
		tr = append(tr, Record[float64, int]{Context: float64(i%9) / 4, Decision: i % 3, Reward: float64(i % 5), Propensity: 1.0 / 3})
	}
	for _, tc := range cases {
		first := make(map[float64][]Weighted[int])
		for i, rec := range tr {
			a, b := tc.p.Distribution(rec.Context), tc.p.Distribution(rec.Context)
			if err := ValidateDistribution(a); err != nil {
				t.Fatalf("%s: record %d: %v", tc.name, i, err)
			}
			want, seen := first[rec.Context]
			if !seen {
				want = append([]Weighted[int](nil), a...)
				first[rec.Context] = want
			}
			if !sameWeights(a, want) || !sameWeights(b, want) {
				t.Fatalf("%s: record %d, context %g: answers %v and %v, first answer %v", tc.name, i, rec.Context, a, b, want)
			}
		}
	}
}

// sameWeights reports whether two distributions list the same
// decisions in the same order with bit-identical probabilities.
func sameWeights[D comparable](a, b []Weighted[D]) bool {
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

func TestValidateDistribution(t *testing.T) {
	if err := ValidateDistribution([]Weighted[int]{}); err == nil {
		t.Fatal("empty distribution should fail")
	}
	if err := ValidateDistribution([]Weighted[int]{{0, -0.1}, {1, 1.1}}); err == nil {
		t.Fatal("negative probability should fail")
	}
	if err := ValidateDistribution([]Weighted[int]{{0, 0.2}}); err == nil {
		t.Fatal("non-normalized distribution should fail")
	}
	if err := ValidateDistribution([]Weighted[int]{{0, 0.5}, {1, 0.5}}); err != nil {
		t.Fatal(err)
	}
}

func TestFuncPolicy(t *testing.T) {
	f := FuncPolicy[int, int](func(c int) []Weighted[int] {
		return []Weighted[int]{{Decision: c * 2, Prob: 1}}
	})
	if got := f.Distribution(3)[0].Decision; got != 6 {
		t.Fatalf("got %d, want 6", got)
	}
}

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }
