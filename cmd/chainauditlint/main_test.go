package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"

	"chainaudit/internal/lint"
)

func moduleRoot(t *testing.T) string {
	t.Helper()
	mod, err := lint.FindModule(".")
	if err != nil {
		t.Fatalf("find module: %v", err)
	}
	return mod.Dir
}

// TestRunFixtureFails pins the gate semantics: a fixture package with known
// findings must produce exit code 1 and name its analyzer in the output.
func TestRunFixtureFails(t *testing.T) {
	root := moduleRoot(t)
	var out bytes.Buffer
	fixture := filepath.Join("internal", "lint", "testdata", "src", "maporder")
	code, err := run(&out, root, []string{"./" + filepath.ToSlash(fixture)}, false, false)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if code != 1 {
		t.Fatalf("exit code = %d, want 1\noutput:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), ": maporder: ") {
		t.Fatalf("output does not name the maporder analyzer:\n%s", out.String())
	}
}

// TestRunCleanPackage pins the zero exit on a package with no findings.
func TestRunCleanPackage(t *testing.T) {
	root := moduleRoot(t)
	var out bytes.Buffer
	code, err := run(&out, root, []string{"./internal/mempool"}, false, false)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if code != 0 {
		t.Fatalf("exit code = %d, want 0\noutput:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "0 findings") {
		t.Fatalf("summary missing from output:\n%s", out.String())
	}
}

// TestRunJSON pins the -json chainaudit.lint/v1 report shape consumers
// script against: versioned api field, totals that add up, per-analyzer
// counts, and fully-populated findings.
func TestRunJSON(t *testing.T) {
	root := moduleRoot(t)
	var out bytes.Buffer
	fixture := filepath.Join("internal", "lint", "testdata", "src", "errdrop")
	code, err := run(&out, root, []string{"./" + filepath.ToSlash(fixture)}, false, true)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if code != 1 {
		t.Fatalf("exit code = %d, want 1", code)
	}
	var rep report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("output is not a JSON report object: %v\n%s", err, out.String())
	}
	if rep.API != lintAPI {
		t.Fatalf("api = %q, want %q", rep.API, lintAPI)
	}
	if rep.Packages != 1 {
		t.Errorf("packages = %d, want 1", rep.Packages)
	}
	if len(rep.Findings) == 0 {
		t.Fatal("JSON report has no findings")
	}
	if rep.Total != len(rep.Findings) || rep.Suppressed+rep.Unsuppressed != rep.Total {
		t.Errorf("totals inconsistent: total=%d suppressed=%d unsuppressed=%d findings=%d",
			rep.Total, rep.Suppressed, rep.Unsuppressed, len(rep.Findings))
	}
	ec := rep.ByAnalyzer["errdrop"]
	if ec == nil || ec.Unsuppressed == 0 {
		t.Errorf("by_analyzer missing errdrop unsuppressed count: %+v", rep.ByAnalyzer)
	}
	sum := 0
	for _, c := range rep.ByAnalyzer {
		sum += c.Total
	}
	if sum != rep.Total {
		t.Errorf("by_analyzer totals sum to %d, want %d", sum, rep.Total)
	}
	for _, f := range rep.Findings {
		if f.Analyzer == "" || f.File == "" || f.Line == 0 || f.Message == "" {
			t.Errorf("finding missing fields: %+v", f)
		}
	}
}

// TestRunUnsuppressedTrailer pins the per-analyzer attribution line a
// failing make check prints.
func TestRunUnsuppressedTrailer(t *testing.T) {
	root := moduleRoot(t)
	var out bytes.Buffer
	fixture := filepath.Join("internal", "lint", "testdata", "src", "maporder")
	code, err := run(&out, root, []string{"./" + filepath.ToSlash(fixture)}, false, false)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if code != 1 {
		t.Fatalf("exit code = %d, want 1", code)
	}
	if !strings.Contains(out.String(), "unsuppressed by analyzer: maporder=") {
		t.Fatalf("failure output missing per-analyzer counts:\n%s", out.String())
	}
}

// TestRunFixturesMode pins the -fixtures self-test: with the shipped
// fixtures every registered analyzer fires, so the mode exits zero and
// names each analyzer.
func TestRunFixturesMode(t *testing.T) {
	root := moduleRoot(t)
	var out bytes.Buffer
	code, err := runFixtures(&out, root)
	if err != nil {
		t.Fatalf("runFixtures: %v", err)
	}
	if code != 0 {
		t.Fatalf("exit code = %d, want 0\noutput:\n%s", code, out.String())
	}
	for _, a := range lint.Analyzers() {
		if !strings.Contains(out.String(), "fixtures: "+a.Name+" ok") {
			t.Errorf("self-test output does not cover %s:\n%s", a.Name, out.String())
		}
	}
}

// TestRunBadPattern pins the loader-error path to exit code 2.
func TestRunBadPattern(t *testing.T) {
	root := moduleRoot(t)
	var out bytes.Buffer
	code, err := run(&out, root, []string{"./no/such/dir"}, false, false)
	if err == nil {
		t.Fatal("run succeeded on a nonexistent pattern")
	}
	if code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
}
