package checks

import (
	"go/ast"
	"go/token"

	"drnet/internal/analysis"
)

// FloatHygiene flags the float patterns that undermine bit-identical
// evaluation: exact == / != on floating-point values outside
// internal/mathx (where the comparison helpers live), and float
// accumulation into captured variables from inside a goroutine —
// summation order across goroutines is scheduler-dependent, so such
// sums must go through internal/parallel's deterministic reduce.
//
// Comparisons against the exact constant zero are allowed: they are
// well-defined sentinel/guard checks (zero support, division guards),
// not rounding-sensitive equality.
var FloatHygiene = &analysis.Analyzer{
	Name: "floathygiene",
	Doc: "exact float ==/!= outside internal/mathx, and float " +
		"accumulation across goroutine boundaries",
	Run: runFloatHygiene,
}

func runFloatHygiene(pass *analysis.Pass) {
	checkEq := !pathHasSuffix(pass.Path, "internal/mathx")
	// The pool is the one place allowed to move float partials between
	// goroutines: its ordered reduce is what makes that deterministic.
	checkGo := !pathHasSuffix(pass.Path, "internal/parallel")
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BinaryExpr:
				if checkEq {
					checkFloatCompare(pass, n)
				}
			case *ast.GoStmt:
				if checkGo {
					if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
						checkGoroutineFloatAccum(pass, lit)
					}
				}
			}
			return true
		})
	}
}

func checkFloatCompare(pass *analysis.Pass, bin *ast.BinaryExpr) {
	if bin.Op != token.EQL && bin.Op != token.NEQ {
		return
	}
	xt, xok := pass.Info.Types[bin.X]
	yt, yok := pass.Info.Types[bin.Y]
	if !xok || !yok || (!isFloat(xt.Type) && !isFloat(yt.Type)) {
		return
	}
	// Both sides constant: folded at compile time, exact by
	// construction. Either side exactly zero: a sentinel test.
	if isConst(pass.Info, bin.X) && isConst(pass.Info, bin.Y) {
		return
	}
	if isZeroConst(pass.Info, bin.X) || isZeroConst(pass.Info, bin.Y) {
		return
	}
	if sameIdent(bin.X, bin.Y) {
		pass.Reportf(bin.OpPos, "x %s x on floats is a NaN test; spell it math.IsNaN for readers and vet", bin.Op)
		return
	}
	pass.Reportf(bin.OpPos, "exact float %s comparison outside internal/mathx; rounding makes it order- and optimization-sensitive — use a mathx helper, an epsilon, or lint:allow with why exactness is intended", bin.Op)
}

// sameIdent reports whether both sides are the same plain identifier.
func sameIdent(a, b ast.Expr) bool {
	x, ok1 := ast.Unparen(a).(*ast.Ident)
	y, ok2 := ast.Unparen(b).(*ast.Ident)
	return ok1 && ok2 && x.Name == y.Name
}

// checkGoroutineFloatAccum flags `go func() { ... captured += v ... }`:
// each goroutine's contribution lands in scheduler order, so the
// rounded total differs run to run even with perfect locking.
func checkGoroutineFloatAccum(pass *analysis.Pass, lit *ast.FuncLit) {
	lo, hi := lit.Pos(), lit.End()
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		asg, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		switch asg.Tok {
		case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
		default:
			return true
		}
		if len(asg.Lhs) != 1 {
			return true
		}
		lhs := ast.Unparen(asg.Lhs[0])
		tv, ok := pass.Info.Types[lhs]
		if !ok || !isFloat(tv.Type) {
			return true
		}
		if declaredOutside(pass.Info, lhs, lo, hi) {
			pass.Reportf(asg.Pos(), "float accumulated into captured %s inside a goroutine: cross-goroutine summation order is scheduler-dependent; return per-item partials from internal/parallel.Times or TimesCtx and reduce them in index order", exprText(lhs))
		}
		return true
	})
}
