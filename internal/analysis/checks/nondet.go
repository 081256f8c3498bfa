package checks

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"

	"drnet/internal/analysis"
)

// nondetScope is where the nondeterminism check applies: the estimator
// core, the experiment drivers, and the scenario/simulator packages —
// everywhere a result that must be bit-identical across runs and
// worker counts is computed — and every package under nondetDir.
var nondetScope = []string{
	"internal/core",
	"internal/experiments",
	"internal/abr",
	"internal/cdnsim",
	"internal/netsim",
	"internal/relay",
	"internal/tcp",
	"internal/worldstate",
}

// nondetDir holds the examples, whose printed output must be the same
// on every run so that two commits' outputs can be compared byte for
// byte.
const nondetDir = "examples"

// Nondet flags the classic ways a pipeline goes quietly
// nondeterministic. Everywhere: a map-range loop that selects a winner
// (argmax/argmin) under a strict comparison, so ties resolve in the
// randomized iteration order. In packages whose outputs the
// determinism tests pin down: other order-sensitive work inside a
// map-range loop (float accumulation, slice appends, output writes),
// and clock or process-global randomness (time.Now/time.Since, global
// math/rand).
var Nondet = &analysis.Analyzer{
	Name: "nondet",
	Doc: "map-range loops selecting a winner under a strict comparison; in " +
		"deterministic packages also order-sensitive accumulators and " +
		"global math/rand / time.Now",
	Run: runNondet,
}

// randConstructors are the math/rand package-level functions that only
// build generators (seeded explicitly by the caller) rather than
// drawing from the process-global source.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

func runNondet(pass *analysis.Pass) {
	deterministic := pathHasSuffix(pass.Path, nondetScope...) || strings.Contains("/"+pass.Path+"/", "/"+nondetDir+"/")
	for _, f := range pass.Files {
		analysis.WalkStack(f, func(n ast.Node, stack []ast.Node) bool {
			switch n := n.(type) {
			case *ast.RangeStmt:
				if tv, ok := pass.Info.Types[n.X]; ok {
					if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
						checkMapSelection(pass, n)
						if deterministic {
							checkMapRangeBody(pass, n, stack)
						}
					}
				}
			case *ast.CallExpr:
				if deterministic {
					checkGlobalRandClock(pass, n)
				}
			}
			return true
		})
	}
}

// checkMapSelection reports an if inside a map-range loop that keeps a
// running best or worst — an outer variable compared with < or > and
// reassigned in the branch — and also records which element won: on
// ties the winner is whichever element the randomized iteration order
// reaches first. A branch that only stores the compared candidate into
// the running value it was compared with (best = v after v > best)
// keeps an extreme, which no iteration order changes, and passes.
func checkMapSelection(pass *analysis.Pass, rng *ast.RangeStmt) {
	lo, hi := rng.Pos(), rng.End()
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		ifs, ok := n.(*ast.IfStmt)
		if !ok {
			return true
		}
		// cands[v] are the expressions outer variable v is strictly
		// compared against.
		cands := map[types.Object][]string{}
		ast.Inspect(ifs.Cond, func(c ast.Node) bool {
			if bin, ok := c.(*ast.BinaryExpr); ok && (bin.Op == token.LSS || bin.Op == token.GTR) {
				for _, side := range [][2]ast.Expr{{bin.X, bin.Y}, {bin.Y, bin.X}} {
					if v := outerVar(pass.Info, side[0], lo, hi); v != nil {
						cands[v] = append(cands[v], types.ExprString(side[1]))
					}
				}
			}
			return true
		})
		running, recordsWinner := false, false
		for _, st := range ifs.Body.List {
			as, ok := st.(*ast.AssignStmt)
			if !ok || as.Tok != token.ASSIGN || len(as.Lhs) != len(as.Rhs) {
				continue
			}
			for i, lhs := range as.Lhs {
				v := outerVar(pass.Info, lhs, lo, hi)
				if v == nil {
					continue
				}
				running = running || cands[v] != nil
				if !slices.Contains(cands[v], types.ExprString(as.Rhs[i])) {
					recordsWinner = true
				}
			}
		}
		if running && recordsWinner {
			pass.Reportf(ifs.Pos(), "map-range loop keeps a running best under a strict comparison and records the winner: ties resolve in randomized iteration order; iterate in a fixed order or break ties on a total order")
		}
		return true
	})
}

// outerVar returns the variable at the root of e when it is declared
// outside [lo, hi], nil otherwise.
func outerVar(info *types.Info, e ast.Expr, lo, hi token.Pos) types.Object {
	id := rootIdent(ast.Unparen(e))
	if id == nil || !declaredOutside(info, id, lo, hi) {
		return nil
	}
	obj := info.Uses[id]
	if obj == nil {
		obj = info.Defs[id]
	}
	if _, ok := obj.(*types.Var); !ok {
		return nil
	}
	return obj
}

// checkMapRangeBody reports order-sensitive statements in the body of
// a map-range loop. Writes keyed by the range variable (m2[k] = ...)
// are order-independent and pass; accumulating into one location that
// outlives the loop, appending to an outer slice, or printing do not.
// The canonical fix — collecting keys into a slice that is sorted
// right after the loop — is recognized and passes.
func checkMapRangeBody(pass *analysis.Pass, rng *ast.RangeStmt, stack []ast.Node) {
	lo, hi := rng.Pos(), rng.End()
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) != 1 || len(n.Rhs) != 1 {
				return true
			}
			lhs := ast.Unparen(n.Lhs[0])
			switch n.Tok {
			case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
				if accumulatesFixedFloat(pass.Info, lhs, lo, hi) {
					pass.Reportf(n.Pos(), "float accumulation into %s inside a map-range loop: iteration order is randomized, so the rounded sum differs across runs; iterate sorted keys or accumulate per-key", exprText(lhs))
				}
			case token.ASSIGN:
				// x = x <op> y is the spelled-out accumulator.
				if bin, ok := ast.Unparen(n.Rhs[0]).(*ast.BinaryExpr); ok && isFloatAccumRewrite(pass.Info, lhs, bin) &&
					accumulatesFixedFloat(pass.Info, lhs, lo, hi) {
					pass.Reportf(n.Pos(), "float accumulation into %s inside a map-range loop: iteration order is randomized; iterate sorted keys or accumulate per-key", exprText(lhs))
				}
				// s = append(s, ...) into a slice that outlives the loop
				// bakes the random order into the result.
				if call, ok := ast.Unparen(n.Rhs[0]).(*ast.CallExpr); ok {
					if isBuiltin(pass.Info, call, "append") && declaredOutside(pass.Info, lhs, lo, hi) &&
						!sortedAfterLoop(pass.Info, rng, stack, lhs) {
						pass.Reportf(n.Pos(), "append to %s inside a map-range loop bakes randomized iteration order into the slice; collect and sort keys first", exprText(lhs))
					}
				}
			}
		case *ast.CallExpr:
			if isPkgCall(pass.Info, n, "fmt", "Print", "Printf", "Println", "Fprint", "Fprintf", "Fprintln") {
				pass.Reportf(n.Pos(), "output written inside a map-range loop appears in randomized order; iterate sorted keys")
			}
		}
		return true
	})
}

// accumulatesFixedFloat reports whether lhs is a float-typed location
// rooted outside [lo,hi] that is written on every iteration — i.e. a
// single accumulator, not a per-key map entry. Index expressions whose
// index is itself declared inside the loop (m[k], s[i] with k,i range
// vars) address a different element each iteration and pass.
func accumulatesFixedFloat(info *types.Info, lhs ast.Expr, lo, hi token.Pos) bool {
	tv, ok := info.Types[lhs]
	if !ok || !isFloat(tv.Type) {
		return false
	}
	if idx, ok := lhs.(*ast.IndexExpr); ok {
		if !declaredOutside(info, idx.Index, lo, hi) {
			return false // per-iteration element: order-independent
		}
	}
	return declaredOutside(info, lhs, lo, hi)
}

// isFloatAccumRewrite reports whether bin is `lhs <op> y` for an
// arithmetic op — the x = x + y spelling of x += y.
func isFloatAccumRewrite(info *types.Info, lhs ast.Expr, bin *ast.BinaryExpr) bool {
	switch bin.Op {
	case token.ADD, token.SUB, token.MUL, token.QUO:
	default:
		return false
	}
	l, ok := lhs.(*ast.Ident)
	if !ok {
		return false
	}
	for _, side := range []ast.Expr{bin.X, bin.Y} {
		if id, ok := ast.Unparen(side).(*ast.Ident); ok && id.Name == l.Name {
			return true
		}
	}
	return false
}

// sortedAfterLoop reports whether the slice appended to inside the
// map-range loop is sorted by a statement following the loop in its
// enclosing block — the collect-then-sort idiom that restores a
// deterministic order before the slice is consumed.
func sortedAfterLoop(info *types.Info, rng *ast.RangeStmt, stack []ast.Node, slice ast.Expr) bool {
	target := rootIdent(slice)
	if target == nil {
		return false
	}
	var block []ast.Stmt
	for i := len(stack) - 1; i >= 0; i-- {
		if b, ok := stack[i].(*ast.BlockStmt); ok {
			block = b.List
			break
		}
	}
	past := false
	for _, st := range block {
		if st == ast.Stmt(rng) {
			past = true
			continue
		}
		if !past {
			continue
		}
		es, ok := st.(*ast.ExprStmt)
		if !ok {
			continue
		}
		call, ok := es.X.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			continue
		}
		f := calleeFunc(info, call)
		if f == nil || f.Pkg() == nil {
			continue
		}
		if p := f.Pkg().Path(); p != "sort" && p != "slices" {
			continue
		}
		if !strings.Contains(f.Name(), "Sort") && !sortFuncNames[f.Name()] {
			continue
		}
		if id := rootIdent(call.Args[0]); id != nil && id.Name == target.Name {
			return true
		}
	}
	return false
}

// sortFuncNames are the package sort helpers whose names do not
// contain "Sort".
var sortFuncNames = map[string]bool{
	"Strings": true, "Ints": true, "Float64s": true, "Stable": true, "Slice": true, "SliceStable": true,
}

// checkGlobalRandClock flags process-global randomness and clock reads.
func checkGlobalRandClock(pass *analysis.Pass, call *ast.CallExpr) {
	f := calleeFunc(pass.Info, call)
	if f == nil || f.Pkg() == nil {
		return
	}
	if sig, ok := f.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return
	}
	switch f.Pkg().Path() {
	case "math/rand", "math/rand/v2":
		if !randConstructors[f.Name()] {
			pass.Reportf(call.Pos(), "global math/rand.%s draws from process-wide state and breaks seeded reproducibility; use internal/parallel.ShardedRNG or a locally seeded source", f.Name())
		}
	case "time":
		if f.Name() == "Now" || f.Name() == "Since" {
			pass.Reportf(call.Pos(), "time.%s in a deterministic package makes results run-dependent; thread timestamps in from the caller", f.Name())
		}
	}
}

// isBuiltin reports whether call invokes the named predeclared builtin.
func isBuiltin(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	if obj := info.Uses[id]; obj != nil {
		_, ok := obj.(*types.Builtin)
		return ok
	}
	return false
}

// exprText renders a short source-ish form of simple lvalue
// expressions for messages.
func exprText(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprText(e.X) + "." + e.Sel.Name
	case *ast.IndexExpr:
		return exprText(e.X) + "[...]"
	case *ast.StarExpr:
		return "*" + exprText(e.X)
	default:
		return "accumulator"
	}
}
