package lint_test

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"chainaudit/internal/lint"
)

// TestDeadCodeIndependentOfPatterns pins the module-wide use set: deadcode's
// findings for a package, suppressed ones and their reasons included, are
// the same whether the run was given ./... or only that package's
// directory, so a narrow run never reports names other packages use.
func TestDeadCodeIndependentOfPatterns(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short mode")
	}
	loader := sharedLoader(t)
	all, err := loader.LoadAll()
	if err != nil {
		t.Fatalf("load ./...: %v", err)
	}
	dir := filepath.Join(loader.Mod.Dir, "internal", "stats")
	one, err := loader.Load(dir)
	if err != nil {
		t.Fatalf("load %s: %v", dir, err)
	}
	of := func(pkgs []*lint.Package) []lint.Finding {
		var out []lint.Finding
		for _, f := range lint.Run(pkgs, []*lint.Analyzer{lint.DeadCode}) {
			if f.Analyzer == lint.DeadCode.Name && filepath.Dir(f.File) == dir {
				out = append(out, f)
			}
		}
		return out
	}
	wide, narrow := of(all), of([]*lint.Package{one})
	if len(wide) == 0 {
		t.Fatal("no deadcode findings in internal/stats: the comparison would be vacuous")
	}
	if !reflect.DeepEqual(wide, narrow) {
		t.Errorf("deadcode findings differ by pattern:\n./...: %+v\n./internal/stats: %+v", wide, narrow)
	}
}

// TestDeadCodeStaleDirective checks that a //lint:allow deadcode on a name
// that is used suppresses nothing and is reported as stale, while one on an
// unused name suppresses its finding.
func TestDeadCodeStaleDirective(t *testing.T) {
	src := `package p

//lint:allow deadcode covers a name caller uses, so it suppresses nothing
func Used() int { return 1 }

func caller() int { return Used() }

//lint:allow deadcode test seam: the live suppression beside the stale one
func Seam() int { return 2 }
`
	pkg := checkSource(t, src)
	pkg.Path = "chainaudit/internal/p" // deadcode checks internal/ only
	var stale, suppressed int
	for _, f := range lint.Run([]*lint.Package{pkg}, lint.Analyzers()) {
		switch {
		case f.Analyzer == lint.DirectiveAnalyzer && f.Line == 3 && strings.Contains(f.Message, "suppresses nothing"):
			stale++
		case f.Analyzer == lint.DeadCode.Name && f.Suppressed && f.Line == 9:
			suppressed++
		default:
			t.Errorf("unexpected finding %d: %s: %s (suppressed=%v)", f.Line, f.Analyzer, f.Message, f.Suppressed)
		}
	}
	if stale != 1 || suppressed != 1 {
		t.Errorf("stale directives = %d, suppressed deadcode findings = %d; want 1 and 1", stale, suppressed)
	}
}
