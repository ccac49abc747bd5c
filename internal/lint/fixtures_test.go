package lint_test

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"

	"chainaudit/internal/lint"
)

// sharedLoader memoizes one loader per test binary so the five fixture
// subtests (and anything else) type-check the stdlib closure once.
var (
	loaderOnce sync.Once
	loaderVal  *lint.Loader
	loaderErr  error
)

func sharedLoader(t *testing.T) *lint.Loader {
	t.Helper()
	loaderOnce.Do(func() {
		mod, err := lint.FindModule(".")
		if err != nil {
			loaderErr = err
			return
		}
		loaderVal = lint.NewLoader(mod)
	})
	if loaderErr != nil {
		t.Fatalf("find module: %v", loaderErr)
	}
	return loaderVal
}

// wantRe matches expectation comments in fixtures: // want `regexp`
var wantRe = regexp.MustCompile("//\\s*want\\s+`([^`]+)`")

// fixtureWants reads the fixture file and collects want patterns by line.
func fixtureWants(t *testing.T, path string) map[int][]*regexp.Regexp {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read fixture: %v", err)
	}
	wants := make(map[int][]*regexp.Regexp)
	for i, line := range strings.Split(string(data), "\n") {
		for _, m := range wantRe.FindAllStringSubmatch(line, -1) {
			re, err := regexp.Compile(m[1])
			if err != nil {
				t.Fatalf("%s:%d: bad want pattern %q: %v", path, i+1, m[1], err)
			}
			wants[i+1] = append(wants[i+1], re)
		}
	}
	return wants
}

// TestFixtures pins each analyzer's behaviour against its testdata fixture:
// every unsuppressed finding must match a // want pattern on its line, every
// want pattern must be hit, and the fixture's namesake analyzer must
// actually fire (so a silently dead analyzer cannot pass).
func TestFixtures(t *testing.T) {
	for _, a := range lint.Analyzers() {
		t.Run(a.Name, func(t *testing.T) {
			dir, err := filepath.Abs(filepath.Join("testdata", "src", a.Name))
			if err != nil {
				t.Fatal(err)
			}
			pkg, err := sharedLoader(t).Load(dir)
			if err != nil {
				t.Fatalf("load fixture: %v", err)
			}
			findings := lint.Run([]*lint.Package{pkg}, lint.Analyzers())

			fired := false
			matched := make(map[string]bool) // "line/index" of satisfied wants
			for _, f := range findings {
				if f.Analyzer == a.Name {
					fired = true
				}
				if f.Suppressed {
					if f.Reason == "" {
						t.Errorf("%s:%d: suppressed finding lost its reason", f.File, f.Line)
					}
					continue
				}
				wants := fixtureWants(t, f.File)[f.Line]
				ok := false
				for i, re := range wants {
					if re.MatchString(f.Analyzer + ": " + f.Message) {
						ok = true
						matched[fmt.Sprintf("%d/%d", f.Line, i)] = true
					}
				}
				if !ok {
					t.Errorf("unexpected finding %s:%d: %s: %s", f.File, f.Line, f.Analyzer, f.Message)
				}
			}
			if !fired {
				t.Fatalf("analyzer %s produced no findings on its own fixture", a.Name)
			}
			for _, file := range []string{filepath.Join(dir, a.Name+".go")} {
				for line, wants := range fixtureWants(t, file) {
					for i := range wants {
						if !matched[fmt.Sprintf("%d/%d", line, i)] {
							t.Errorf("%s:%d: want %q never matched a finding", file, line, wants[i])
						}
					}
				}
			}
		})
	}
}

// TestFixtureSuppressions pins the directive flow end to end: the walltime,
// errdrop, lockheld, and deadcode fixtures each carry one reasoned
// //lint:allow, which must suppress exactly one finding and leave no
// stale-directive report.
func TestFixtureSuppressions(t *testing.T) {
	for _, name := range []string{"walltime", "errdrop", "lockheld", "deadcode"} {
		dir, err := filepath.Abs(filepath.Join("testdata", "src", name))
		if err != nil {
			t.Fatal(err)
		}
		pkg, err := sharedLoader(t).Load(dir)
		if err != nil {
			t.Fatalf("load fixture: %v", err)
		}
		findings := lint.Run([]*lint.Package{pkg}, lint.Analyzers())
		suppressed := 0
		for _, f := range findings {
			if f.Analyzer == lint.DirectiveAnalyzer {
				t.Errorf("%s fixture: unexpected directive finding: %s", name, f.Message)
			}
			if f.Suppressed {
				suppressed++
				if !strings.Contains(f.Reason, "fixture") {
					t.Errorf("%s fixture: suppression reason %q lost its text", name, f.Reason)
				}
			}
		}
		if suppressed != 1 {
			t.Errorf("%s fixture: suppressed findings = %d, want 1", name, suppressed)
		}
	}
}
