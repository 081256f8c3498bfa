// Package analysis is the repository's static-analysis framework: a
// stdlib-only analyzer harness (go/parser + go/types + the source
// importer — deliberately no golang.org/x/tools, matching the module's
// zero-dependency stance) that cmd/drevallint drives over the tree.
//
// The framework exists because the repo's core guarantees — bit-identical
// results at every worker count, seeded RNG streams, ctx-aware hot
// paths, well-formed telemetry — are invariants of the *source*, not
// just of the current test suite. A stray map-range feeding a float
// accumulator or a global math/rand call silently re-introduces the
// evaluation biases the paper warns about; the analyzers in
// internal/analysis/checks turn each of those invariants into a
// mechanical, position-accurate diagnostic.
//
// Findings are suppressed line-by-line with
//
//	//lint:allow <check> <reason>
//
// placed on the flagged line or the line directly above it. The reason
// is mandatory: an unexplained suppression is itself reported.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer is one named check. Run inspects the package held by the
// Pass and reports findings through pass.Report; it must tolerate
// partial type information (nil objects, missing map entries), because
// the loader degrades to best-effort info when a package has type
// errors.
type Analyzer struct {
	// Name identifies the check in diagnostics and in
	// //lint:allow comments. Lowercase, no spaces.
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// Run performs the analysis.
	Run func(*Pass)
}

// Pass carries one loaded package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files are the package's parsed non-test files.
	Files []*ast.File
	// Pkg is the type-checked package; may be incomplete when the
	// package had type errors.
	Pkg *types.Package
	// Info holds use/def/type facts for the files. All maps are
	// non-nil, but entries may be missing under type errors.
	Info *types.Info
	// Path is the package's import path (e.g. drnet/internal/core).
	Path string
	// Facts is the package's shared fact store: analyzers attach
	// interprocedural findings to types.Objects here and may read
	// facts published by analyzers that ran earlier in the suite.
	Facts *Facts

	diags *[]Diagnostic
	cache *passCache
}

// passCache holds per-package structures shared by every analyzer in
// the run, built lazily: the call graph and one CFG per function body.
type passCache struct {
	cg   *CallGraph
	cfgs map[*ast.BlockStmt]*CFG
}

// CallGraph returns the package's call graph, building it on first
// use and sharing it across analyzers.
func (p *Pass) CallGraph() *CallGraph {
	if p.cache.cg == nil {
		p.cache.cg = BuildCallGraph(p.Files, p.Info)
	}
	return p.cache.cg
}

// FuncCFG returns the CFG of a function (or function literal) body,
// building and caching it on first use.
func (p *Pass) FuncCFG(body *ast.BlockStmt) *CFG {
	if g, ok := p.cache.cfgs[body]; ok {
		return g
	}
	g := BuildCFG(body)
	p.cache.cfgs[body] = g
	return g
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:     p.Fset.Position(pos),
		Check:   p.Analyzer.Name,
		Message: fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding, suppression already NOT applied (the
// runner filters suppressed findings before returning them).
type Diagnostic struct {
	Pos     token.Position
	File    string
	Line    int
	Col     int
	Check   string
	Message string
}

// fill populates the flattened position fields that String and SARIF
// read.
func (d *Diagnostic) fill() {
	d.File = d.Pos.Filename
	d.Line = d.Pos.Line
	d.Col = d.Pos.Column
}

// String renders the conventional file:line:col: [check] message form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.File, d.Line, d.Col, d.Check, d.Message)
}

// Run applies every analyzer to every package, filters findings
// through the packages' //lint:allow comments, and returns the
// surviving diagnostics in deterministic (file, line, col, check)
// order. Malformed suppression comments are reported under the "lint"
// check and cannot themselves be suppressed.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		sup, supDiags := collectSuppressions(pkg)
		diags = append(diags, supDiags...)
		var raw []Diagnostic
		facts := NewFacts()
		cache := &passCache{cfgs: map[*ast.BlockStmt]*CFG{}}
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				Path:     pkg.Path,
				Facts:    facts,
				diags:    &raw,
				cache:    cache,
			}
			a.Run(pass)
		}
		for _, d := range raw {
			if !sup.allows(d) {
				diags = append(diags, d)
			}
		}
	}
	for i := range diags {
		diags[i].fill()
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		return a.Message < b.Message
	})
	return diags
}

// WalkStack traverses root in ast.Inspect order, passing each node the
// stack of its ancestors (outermost first, root's parent excluded).
// Returning false skips the node's children. Analyzers use it where a
// finding depends on context — e.g. "is this call inside a defer".
func WalkStack(root ast.Node, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if !fn(n, stack) {
			return false
		}
		stack = append(stack, n)
		return true
	})
}
