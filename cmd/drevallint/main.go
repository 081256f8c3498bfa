// Command drevallint runs the repository's static-analysis suite: five
// stdlib-only analyzers (nondet, floathygiene, ctxdiscipline,
// obshygiene, gosafety) that mechanically enforce the determinism,
// float-hygiene, cancellation and observability invariants the test
// suite pins at runtime. See README "Static analysis".
//
// Usage:
//
//	drevallint [-sarif] [-checks nondet,obshygiene] [patterns]
//
// Exit code 0 means clean, 1 means findings, 2 means a package failed
// to load (analysis still ran best-effort on what parsed).
package main

import (
	"os"

	"drnet/internal/analysis/lintmain"
)

func main() {
	os.Exit(lintmain.Run(os.Args[1:], os.Stdout, os.Stderr))
}
