// Package cbn implements discrete causal Bayesian networks: parameter
// estimation, score-based structure learning, exact inference by
// variable elimination, and ancestral sampling.
//
// It is the reward-model substrate for the WISE scenario (§2.2.1,
// Figure 4): WISE answers what-if CDN configuration questions by
// learning a CBN from packet traces and querying it — a Direct-Method
// style evaluator whose bias the paper's Figure 7a quantifies.
package cbn

import (
	"errors"
	"fmt"
	"math"

	"drnet/internal/mathx"
)

// Variable describes one discrete node.
type Variable struct {
	// Name identifies the variable (e.g. "ISP", "FE", "RT").
	Name string
	// Card is the number of discrete states (≥ 2).
	Card int
}

// Network is a directed acyclic graphical model over discrete variables.
type Network struct {
	vars    []Variable
	parents [][]int     // parents[i] lists parent variable indices of i
	cpt     [][]float64 // cpt[i][parentIndex*Card + state]
}

// New creates a network with the given variables and no edges. CPTs are
// uniform until fitted or set.
func New(vars []Variable) (*Network, error) {
	if len(vars) == 0 {
		return nil, errors.New("cbn: no variables")
	}
	seen := make(map[string]bool)
	for _, v := range vars {
		if v.Card < 2 {
			return nil, fmt.Errorf("cbn: variable %q has cardinality %d, want >= 2", v.Name, v.Card)
		}
		if seen[v.Name] {
			return nil, fmt.Errorf("cbn: duplicate variable %q", v.Name)
		}
		seen[v.Name] = true
	}
	n := &Network{
		vars:    append([]Variable(nil), vars...),
		parents: make([][]int, len(vars)),
		cpt:     make([][]float64, len(vars)),
	}
	for i := range vars {
		n.resetCPT(i)
	}
	return n, nil
}

// Index returns the index of the named variable, or -1.
func (n *Network) Index(name string) int {
	for i, v := range n.vars {
		if v.Name == name {
			return i
		}
	}
	return -1
}

// Vars returns the variable list (do not mutate).
func (n *Network) Vars() []Variable { return n.vars }

// parentConfigs returns the number of joint parent configurations of
// variable i.
func (n *Network) parentConfigs(i int) int {
	m := 1
	for _, p := range n.parents[i] {
		m *= n.vars[p].Card
	}
	return m
}

func (n *Network) resetCPT(i int) {
	rows := n.parentConfigs(i)
	card := n.vars[i].Card
	n.cpt[i] = make([]float64, rows*card)
	u := 1 / float64(card)
	for j := range n.cpt[i] {
		n.cpt[i][j] = u
	}
}

// parentConfigIndex maps an assignment (full sample) to the row index of
// variable i's CPT.
func (n *Network) parentConfigIndex(i int, sample []int) int {
	idx := 0
	for _, p := range n.parents[i] {
		idx = idx*n.vars[p].Card + sample[p]
	}
	return idx
}

// AddEdge adds parent → child. It rejects duplicate edges, self loops
// and cycles.
func (n *Network) AddEdge(parent, child int) error {
	if parent == child {
		return errors.New("cbn: self loop")
	}
	if parent < 0 || parent >= len(n.vars) || child < 0 || child >= len(n.vars) {
		return errors.New("cbn: variable index out of range")
	}
	for _, p := range n.parents[child] {
		if p == parent {
			return fmt.Errorf("cbn: edge %s→%s already exists", n.vars[parent].Name, n.vars[child].Name)
		}
	}
	n.parents[child] = append(n.parents[child], parent)
	if n.hasCycle() {
		n.parents[child] = n.parents[child][:len(n.parents[child])-1]
		return fmt.Errorf("cbn: edge %s→%s would create a cycle", n.vars[parent].Name, n.vars[child].Name)
	}
	n.resetCPT(child)
	return nil
}

// RemoveEdge removes parent → child if present.
func (n *Network) RemoveEdge(parent, child int) bool {
	for k, p := range n.parents[child] {
		if p == parent {
			n.parents[child] = append(n.parents[child][:k], n.parents[child][k+1:]...)
			n.resetCPT(child)
			return true
		}
	}
	return false
}

// HasEdge reports whether parent → child exists.
func (n *Network) HasEdge(parent, child int) bool {
	for _, p := range n.parents[child] {
		if p == parent {
			return true
		}
	}
	return false
}

func (n *Network) hasCycle() bool {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make([]int, len(n.vars))
	var visit func(i int) bool
	visit = func(i int) bool {
		color[i] = gray
		for _, p := range n.parents[i] {
			switch color[p] {
			case gray:
				return true
			case white:
				if visit(p) {
					return true
				}
			}
		}
		color[i] = black
		return false
	}
	for i := range n.vars {
		if color[i] == white && visit(i) {
			return true
		}
	}
	return false
}

// topoOrder returns variable indices in topological (parents-first)
// order.
func (n *Network) topoOrder() []int {
	order := make([]int, 0, len(n.vars))
	state := make([]int, len(n.vars))
	var visit func(i int)
	visit = func(i int) {
		state[i] = 1
		for _, p := range n.parents[i] {
			if state[p] == 0 {
				visit(p)
			}
		}
		state[i] = 2
		order = append(order, i)
	}
	for i := range n.vars {
		if state[i] == 0 {
			visit(i)
		}
	}
	return order
}

// Fit estimates all CPTs from complete samples by maximum likelihood
// with the given Laplace smoothing pseudo-count (alpha = 1 is standard;
// 0 disables smoothing and leaves unseen rows uniform).
func (n *Network) Fit(samples [][]int, alpha float64) error {
	if len(samples) == 0 {
		return errors.New("cbn: no samples")
	}
	if alpha < 0 {
		return errors.New("cbn: negative smoothing")
	}
	for si, s := range samples {
		if len(s) != len(n.vars) {
			return fmt.Errorf("cbn: sample %d has %d values, want %d", si, len(s), len(n.vars))
		}
		for i, v := range s {
			if v < 0 || v >= n.vars[i].Card {
				return fmt.Errorf("cbn: sample %d: state %d out of range for %q", si, v, n.vars[i].Name)
			}
		}
	}
	for i := range n.vars {
		card := n.vars[i].Card
		rows := n.parentConfigs(i)
		counts := make([]float64, rows*card)
		for _, s := range samples {
			counts[n.parentConfigIndex(i, s)*card+s[i]]++
		}
		for r := 0; r < rows; r++ {
			total := alpha * float64(card)
			for v := 0; v < card; v++ {
				total += counts[r*card+v]
			}
			for v := 0; v < card; v++ {
				if total == 0 {
					n.cpt[i][r*card+v] = 1 / float64(card)
				} else {
					n.cpt[i][r*card+v] = (counts[r*card+v] + alpha) / total
				}
			}
		}
	}
	return nil
}

// SetCPT sets the conditional distribution of variable i for one parent
// configuration row. probs must have length Card and sum to ~1.
func (n *Network) SetCPT(i, row int, probs []float64) error {
	card := n.vars[i].Card
	if len(probs) != card {
		return fmt.Errorf("cbn: got %d probabilities, want %d", len(probs), card)
	}
	if row < 0 || row >= n.parentConfigs(i) {
		return fmt.Errorf("cbn: row %d out of range", row)
	}
	sum := 0.0
	for _, p := range probs {
		if p < 0 {
			return errors.New("cbn: negative probability")
		}
		sum += p
	}
	if sum < 0.999 || sum > 1.001 {
		return fmt.Errorf("cbn: probabilities sum to %g", sum)
	}
	copy(n.cpt[i][row*card:(row+1)*card], probs)
	return nil
}

// Sample draws one complete assignment by ancestral sampling.
func (n *Network) Sample(rng *mathx.RNG) []int {
	out := make([]int, len(n.vars))
	for _, i := range n.topoOrder() {
		card := n.vars[i].Card
		row := n.parentConfigIndex(i, out)
		out[i] = rng.Categorical(n.cpt[i][row*card : (row+1)*card])
	}
	return out
}

// LogLikelihood returns the total log-likelihood of the samples under
// the current structure and CPTs.
func (n *Network) LogLikelihood(samples [][]int) float64 {
	ll := 0.0
	for _, s := range samples {
		for i := range n.vars {
			card := n.vars[i].Card
			p := n.cpt[i][n.parentConfigIndex(i, s)*card+s[i]]
			if p <= 0 {
				p = 1e-12
			}
			ll += math.Log(p)
		}
	}
	return ll
}
