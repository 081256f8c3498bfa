package checks_test

import (
	"testing"

	"drnet/internal/analysis/atest"
	"drnet/internal/analysis/checks"
)

// Each fixture seeds the violations its analyzer exists to catch (plus
// the idioms that must stay clean); atest fails the test if a seeded
// violation goes unflagged or a clean idiom gets flagged.

func TestNondetFixture(t *testing.T) {
	atest.Run(t, "testdata/nondet", "fixture/internal/core", checks.Nondet)
}

func TestNondetExamplesFixture(t *testing.T) {
	// Every package under examples/ is in the deterministic scope, so
	// the same fixture must draw the same findings there.
	atest.Run(t, "testdata/nondet", "fixture/examples/demo", checks.Nondet)
}

func TestNondetSelectionFixture(t *testing.T) {
	atest.Run(t, "testdata/nondetselect", "fixture/internal/traceio", checks.Nondet)
}

func TestFloatHygieneFixture(t *testing.T) {
	atest.Run(t, "testdata/floathygiene", "fixture/floats", checks.FloatHygiene)
}

func TestFloatHygieneExemptInMathx(t *testing.T) {
	// The same fixture loaded as internal/mathx must produce only the
	// goroutine-accumulation findings: the ==/!= rule is scoped out.
	atest.Run(t, "testdata/floathygiene_mathx", "fixture/internal/mathx", checks.FloatHygiene)
}

func TestCtxDisciplineFixture(t *testing.T) {
	atest.Run(t, "testdata/ctxdiscipline", "fixture/internal/core", checks.CtxDiscipline)
}

func TestCtxBackgroundFixture(t *testing.T) {
	atest.Run(t, "testdata/ctxbackground", "fixture/cmd/drevald", checks.CtxDiscipline)
}

func TestObsHygieneFixture(t *testing.T) {
	atest.Run(t, "testdata/obshygiene", "fixture/obshyg", checks.ObsHygiene)
}

func TestFsyncHygieneFixture(t *testing.T) {
	atest.Run(t, "testdata/fsynchygiene", "fixture/io", checks.FsyncHygiene)
}

func TestGoSafetyFixture(t *testing.T) {
	atest.Run(t, "testdata/gosafety", "fixture/cmd/drevald", checks.GoSafety)
}

func TestLockGuardFixture(t *testing.T) {
	atest.Run(t, "testdata/lockguard", "fixture/lockguard", checks.LockGuard)
}

func TestHotAllocFixture(t *testing.T) {
	// Loaded as internal/core so the View/ViewIdx naming seeds apply.
	atest.Run(t, "testdata/hotalloc", "fixture/internal/core", checks.HotAlloc)
}

func TestSeedFlowFixture(t *testing.T) {
	atest.Run(t, "testdata/seedflow", "fixture/seedflow", checks.SeedFlow)
}
