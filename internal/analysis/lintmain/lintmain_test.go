package lintmain_test

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"

	"drnet/internal/analysis/lintmain"
)

// Explicit patterns resolve against the module root, so the fixture
// dirs are named by their full repo-relative path.
const (
	cleanPat    = "./internal/analysis/lintmain/testdata/clean"
	findingsPat = "./internal/analysis/lintmain/testdata/findings"
	brokenPat   = "./internal/analysis/lintmain/testdata/broken"
)

func run(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errBuf bytes.Buffer
	code = lintmain.Run(args, &out, &errBuf)
	return code, out.String(), errBuf.String()
}

func TestExitCleanOnCleanPackage(t *testing.T) {
	code, stdout, stderr := run(t, cleanPat)
	if code != lintmain.ExitClean {
		t.Fatalf("exit = %d, want %d\nstdout: %s\nstderr: %s", code, lintmain.ExitClean, stdout, stderr)
	}
	if !strings.Contains(stdout, "packages clean") {
		t.Errorf("stdout should report a clean run, got: %s", stdout)
	}
}

func TestExitFindingsOnViolation(t *testing.T) {
	code, stdout, stderr := run(t, findingsPat)
	if code != lintmain.ExitFindings {
		t.Fatalf("exit = %d, want %d\nstdout: %s\nstderr: %s", code, lintmain.ExitFindings, stdout, stderr)
	}
	if !strings.Contains(stdout, "gosafety") {
		t.Errorf("the mutex copy should surface as a gosafety finding, got: %s", stdout)
	}
	if !strings.Contains(stderr, "1 findings, 0 load errors") {
		t.Errorf("stderr summary missing, got: %s", stderr)
	}
}

func TestExitLoadErrorOnBrokenPackage(t *testing.T) {
	code, _, stderr := run(t, brokenPat)
	if code != lintmain.ExitLoadError {
		t.Fatalf("exit = %d, want %d\nstderr: %s", code, lintmain.ExitLoadError, stderr)
	}
	if !strings.Contains(stderr, "load") {
		t.Errorf("stderr should carry the load error, got: %s", stderr)
	}
}

// TestRemovedFlagsAreUsageErrors pins the flag set: a finding is
// accepted only by //lint:allow, and SARIF is the one machine-readable
// output, so -json, -baseline and -write-baseline are unknown flags.
func TestRemovedFlagsAreUsageErrors(t *testing.T) {
	file := filepath.Join(t.TempDir(), "lint-baseline.json")
	for _, args := range [][]string{
		{"-json", cleanPat},
		{"-baseline", file, cleanPat},
		{"-write-baseline", file, cleanPat},
	} {
		code, stdout, stderr := run(t, args...)
		if code != lintmain.ExitLoadError {
			t.Errorf("%v: exit = %d, want %d\nstdout: %s", args, code, lintmain.ExitLoadError, stdout)
		}
		if want := "flag provided but not defined: " + args[0]; !strings.Contains(stderr, want) {
			t.Errorf("%v: stderr should say %q, got: %s", args, want, stderr)
		}
	}
}

func TestListPrintsAllAnalyzers(t *testing.T) {
	code, stdout, _ := run(t, "-list")
	if code != lintmain.ExitClean {
		t.Fatalf("exit = %d, want 0", code)
	}
	for _, name := range []string{"nondet", "floathygiene", "ctxdiscipline", "obshygiene", "gosafety"} {
		if !strings.Contains(stdout, name) {
			t.Errorf("-list missing analyzer %q:\n%s", name, stdout)
		}
	}
}

func TestUnknownCheckIsLoadError(t *testing.T) {
	code, _, stderr := run(t, "-checks", "nosuchcheck", cleanPat)
	if code != lintmain.ExitLoadError {
		t.Fatalf("exit = %d, want %d", code, lintmain.ExitLoadError)
	}
	if !strings.Contains(stderr, "unknown check") {
		t.Errorf("stderr should name the unknown check, got: %s", stderr)
	}
}

func TestChecksSubsetSkipsOtherAnalyzers(t *testing.T) {
	// With only nondet selected, the gosafety violation in the findings
	// fixture must not be reported.
	code, stdout, stderr := run(t, "-checks", "nondet", findingsPat)
	if code != lintmain.ExitClean {
		t.Fatalf("exit = %d, want %d\nstdout: %s\nstderr: %s", code, lintmain.ExitClean, stdout, stderr)
	}
}

func TestSARIFOutput(t *testing.T) {
	code, stdout, _ := run(t, "-sarif", findingsPat)
	if code != lintmain.ExitFindings {
		t.Fatalf("exit = %d, want %d", code, lintmain.ExitFindings)
	}
	var log struct {
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name string `json:"name"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID    string `json:"ruleId"`
				Locations []struct {
					PhysicalLocation struct {
						ArtifactLocation struct {
							URI string `json:"uri"`
						} `json:"artifactLocation"`
					} `json:"physicalLocation"`
				} `json:"locations"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal([]byte(stdout), &log); err != nil {
		t.Fatalf("stdout is not valid SARIF JSON: %v\n%s", err, stdout)
	}
	if log.Version != "2.1.0" || len(log.Runs) != 1 || log.Runs[0].Tool.Driver.Name != "drevallint" {
		t.Fatalf("unexpected SARIF header: %s", stdout)
	}
	results := log.Runs[0].Results
	if len(results) != 1 || results[0].RuleID != "gosafety" {
		t.Fatalf("results = %+v, want the one gosafety finding", results)
	}
	uri := results[0].Locations[0].PhysicalLocation.ArtifactLocation.URI
	if uri != "internal/analysis/lintmain/testdata/findings/bad.go" {
		t.Errorf("uri = %q, want module-root-relative slashed path", uri)
	}
}

// TestDeliberateViolationFixtures pins the CI failure legs: each new
// analyzer must fail its seeded-violation package, so a regression
// that silences a check cannot pass as "clean".
func TestDeliberateViolationFixtures(t *testing.T) {
	cases := []struct {
		check, pat, wantMsg string
	}{
		{"lockguard", "./internal/analysis/lintmain/testdata/lockguardbad", "guarded by mu but accessed without holding it"},
		{"hotalloc", "./internal/analysis/lintmain/testdata/hotallocbad", "allocates in hot path"},
		{"seedflow", "./internal/analysis/lintmain/testdata/seedflowbad", "traces to a constant on every path"},
	}
	for _, tc := range cases {
		t.Run(tc.check, func(t *testing.T) {
			code, stdout, stderr := run(t, "-checks", tc.check, tc.pat)
			if code != lintmain.ExitFindings {
				t.Fatalf("exit = %d, want %d\nstdout: %s\nstderr: %s", code, lintmain.ExitFindings, stdout, stderr)
			}
			if !strings.Contains(stdout, tc.wantMsg) {
				t.Errorf("stdout missing %q:\n%s", tc.wantMsg, stdout)
			}
		})
	}
}
