package checks

import (
	"go/ast"
	"regexp"

	"drnet/internal/analysis"
)

// metricNameRE is the repo's metric naming contract: drevald_* for the
// server (including the drevald_bias_* estimator-health family),
// obs_* for the observability layer's own series, go_* for runtime
// gauges. One namespace per layer keeps dashboards greppable and
// prevents collisions with scrape-time relabeling.
var metricNameRE = regexp.MustCompile(`^(drevald|obs|go)_[a-z0-9_]+$`)

// ObsHygiene enforces the telemetry contracts that keep the
// observability layer trustworthy: metric names must match
// ^(drevald|obs|go)_[a-z0-9_]+$ and be non-empty, Help registrations
// must carry a non-empty description, logger key=value calls must have
// even arity (an odd tail becomes !BADKEY noise), and Span.End must be
// deferred so panics and early returns still record the span.
var ObsHygiene = &analysis.Analyzer{
	Name: "obshygiene",
	Doc: "metric-name policy (incl. empty name/help strings), odd-arity " +
		"key=value logger calls, and non-deferred Span.End",
	Run: runObsHygiene,
}

// loggerKVMethods maps slog.Logger methods to the index of their first
// key=value argument.
var loggerKVMethods = map[string]int{
	"Debug": 1, "Info": 1, "Warn": 1, "Error": 1, "With": 0,
}

func runObsHygiene(pass *analysis.Pass) {
	for _, f := range pass.Files {
		analysis.WalkStack(f, func(n ast.Node, stack []ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			recv, method := methodRecv(pass.Info, call)
			if recv == nil {
				return true
			}
			switch {
			case namedFrom(recv, "internal/obs", "Registry"):
				switch method {
				case "Counter", "Gauge", "Histogram", "Help":
					if name, ok := constStringArg(pass.Info, call, 0); ok {
						switch {
						case name == "":
							pass.Reportf(call.Args[0].Pos(), "empty metric name: the series registers but can never be scraped by name — give it a ^(drevald|obs|go)_ name")
						case !metricNameRE.MatchString(name):
							pass.Reportf(call.Args[0].Pos(), "metric name %q violates the naming contract ^(drevald|obs|go)_[a-z0-9_]+$; pick the layer's prefix so dashboards and relabeling stay consistent", name)
						}
					}
					if method == "Help" {
						if help, ok := constStringArg(pass.Info, call, 1); ok && help == "" {
							pass.Reportf(call.Args[1].Pos(), "empty help string: the # HELP line renders blank on /metrics — describe what the series measures")
						}
					}
				}
			case namedFrom(recv, "log/slog", "Logger"):
				if start, ok := loggerKVMethods[method]; ok && !call.Ellipsis.IsValid() {
					if kv := len(call.Args) - start; kv > 0 && kv%2 != 0 {
						pass.Reportf(call.Pos(), "%s call has %d key=value args (odd): the dangling value logs as !BADKEY — pair every key with a value", method, kv)
					}
				}
			case namedFrom(recv, "internal/obs", "Span"):
				if method == "End" && !underDefer(stack) {
					pass.Reportf(call.Pos(), "Span.End not deferred: a panic or early return between Start and this call loses the span (and its error mark) from metrics and timelines; defer it at Start, or lint:allow with why mid-function End is required")
				}
			}
			return true
		})
	}
}

// underDefer reports whether the node whose ancestor stack is given
// executes as part of a defer: either `defer sp.End()` directly, or
// inside a deferred function literal.
func underDefer(stack []ast.Node) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		switch stack[i].(type) {
		case *ast.DeferStmt:
			return true
		case *ast.FuncDecl:
			return false
		case *ast.FuncLit:
			// Keep climbing: a FuncLit directly under a DeferStmt is
			// the deferred closure; one under a GoStmt or assignment
			// is not, and the next ancestor decides.
			if i > 0 {
				if _, ok := stack[i-1].(*ast.DeferStmt); ok {
					return true
				}
				if _, ok := stack[i-1].(*ast.CallExpr); ok && i > 1 {
					if _, ok := stack[i-2].(*ast.DeferStmt); ok {
						return true
					}
				}
			}
			return false
		}
	}
	return false
}
