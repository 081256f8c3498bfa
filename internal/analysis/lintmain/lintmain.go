// Package lintmain is the drevallint driver, split out of cmd so the
// exit-code contract is testable in-process: 0 clean, 1 findings,
// 2 load error (a package that would not parse or type-check — the
// tree was analyzed best-effort, but the run cannot vouch for it).
package lintmain

import (
	"flag"
	"fmt"
	"go/scanner"
	"go/types"
	"io"
	"strings"

	"drnet/internal/analysis"
	"drnet/internal/analysis/checks"
)

// Exit codes of the drevallint CLI.
const (
	ExitClean     = 0
	ExitFindings  = 1
	ExitLoadError = 2
)

// Run executes drevallint with the given arguments, writing findings
// to stdout and load errors/usage to stderr, and returns the exit code.
func Run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("drevallint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	sarifOut := fs.Bool("sarif", false, "emit SARIF 2.1.0 to stdout (for code-scanning upload)")
	list := fs.Bool("list", false, "list analyzers and exit")
	only := fs.String("checks", "", "comma-separated subset of checks to run (default: all)")
	dir := fs.String("dir", ".", "directory inside the module to resolve patterns from")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: drevallint [flags] [patterns]\n\nAnalyzes the module's packages (default pattern ./...) with the repo's\ninvariant checks. Suppress a finding with //lint:allow <check> <reason>\non or directly above the flagged line.\n\nFlags:\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return ExitLoadError
	}

	all := checks.All()
	if *list {
		for _, a := range all {
			fmt.Fprintf(stdout, "%-14s %s\n", a.Name, a.Doc)
		}
		return ExitClean
	}
	selected := all
	if *only != "" {
		byName := map[string]*analysis.Analyzer{}
		for _, a := range all {
			byName[a.Name] = a
		}
		selected = nil
		for _, name := range strings.Split(*only, ",") {
			name = strings.TrimSpace(name)
			a, ok := byName[name]
			if !ok {
				fmt.Fprintf(stderr, "drevallint: unknown check %q (try -list)\n", name)
				return ExitLoadError
			}
			selected = append(selected, a)
		}
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	loader, err := analysis.NewLoader(*dir)
	if err != nil {
		fmt.Fprintf(stderr, "drevallint: %v\n", err)
		return ExitLoadError
	}
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "drevallint: %v\n", err)
		return ExitLoadError
	}
	if len(pkgs) == 0 {
		fmt.Fprintf(stderr, "drevallint: no packages matched %v\n", patterns)
		return ExitLoadError
	}

	var loadErrs []analysis.Diagnostic
	for _, p := range pkgs {
		for _, e := range p.Errs {
			loadErrs = append(loadErrs, errDiags(e)...)
		}
	}
	findings := analysis.Run(pkgs, selected)

	code := ExitClean
	if len(findings) > 0 {
		code = ExitFindings
	}
	if len(loadErrs) > 0 {
		code = ExitLoadError
	}

	if *sarifOut {
		data, err := analysis.SARIF(findings, selected, loader.ModuleRoot())
		if err != nil {
			fmt.Fprintf(stderr, "drevallint: %v\n", err)
			return ExitLoadError
		}
		if _, err := stdout.Write(data); err != nil {
			return ExitLoadError
		}
		for _, d := range loadErrs {
			fmt.Fprintf(stderr, "%s\n", d)
		}
		return code
	}

	for _, d := range loadErrs {
		fmt.Fprintf(stderr, "%s\n", d)
	}
	for _, d := range findings {
		fmt.Fprintf(stdout, "%s\n", d)
	}
	if code == ExitClean {
		fmt.Fprintf(stdout, "drevallint: %d packages clean\n", len(pkgs))
	} else {
		fmt.Fprintf(stderr, "drevallint: %d findings, %d load errors\n", len(findings), len(loadErrs))
	}
	return code
}

// errDiags converts loader errors (scanner error lists, type errors,
// plain errors) into position-bearing diagnostics under the "load"
// check, so load errors print in the findings' shape.
func errDiags(err error) []analysis.Diagnostic {
	switch e := err.(type) {
	case scanner.ErrorList:
		out := make([]analysis.Diagnostic, 0, len(e))
		for _, item := range e {
			out = append(out, analysis.Diagnostic{
				File: item.Pos.Filename, Line: item.Pos.Line, Col: item.Pos.Column,
				Check: "load", Message: item.Msg,
			})
		}
		return out
	case *scanner.Error:
		return []analysis.Diagnostic{{
			File: e.Pos.Filename, Line: e.Pos.Line, Col: e.Pos.Column,
			Check: "load", Message: e.Msg,
		}}
	case types.Error:
		pos := e.Fset.Position(e.Pos)
		return []analysis.Diagnostic{{
			File: pos.Filename, Line: pos.Line, Col: pos.Column,
			Check: "load", Message: e.Msg,
		}}
	default:
		return []analysis.Diagnostic{{Check: "load", Message: err.Error()}}
	}
}
