package lint_test

import (
	"testing"

	"chainaudit/internal/lint"
)

// TestSelfRun executes the full analyzer suite over the real repository and
// asserts zero unsuppressed findings. This is the pin that keeps the repo
// clean forever: a new time.Now in a deterministic package, an unseeded RNG,
// a map-ordered report path, a dropped audit error, or a cancellation-deaf
// goroutine fails this test (and `make lint`) before it can skew bytes.
func TestSelfRun(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short mode")
	}
	pkgs, err := sharedLoader(t).LoadAll()
	if err != nil {
		t.Fatalf("load ./...: %v", err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("loaded only %d packages — pattern expansion is broken", len(pkgs))
	}
	findings := lint.Run(pkgs, lint.Analyzers())
	for _, f := range findings {
		if f.Suppressed {
			t.Logf("suppressed: %s:%d: %s: %s (//lint:allow %s)", f.File, f.Line, f.Analyzer, f.Message, f.Reason)
			continue
		}
		t.Errorf("unsuppressed finding: %s:%d: %s: %s", f.File, f.Line, f.Analyzer, f.Message)
	}
}
