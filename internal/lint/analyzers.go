package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// deterministicPkgs are the internal packages whose outputs must be a pure
// function of the run configuration: the simulation, data-set construction,
// the audit engine, and everything between. Wall-clock reads and unseeded
// randomness in these packages are determinism bugs by definition.
// internal/serve, internal/obs, and internal/pipeline are deliberately NOT
// here: they read wall time for latency metrics and uptime only, and those
// readings never reach result bytes (see DESIGN.md §9 for the allowlist
// policy).
var deterministicPkgs = []string{
	"sim", "chain", "mempool", "core", "experiments", "faults", "p2p", "dataset", "stats",
	// The streaming refactor moved index construction onto a per-block
	// append path (index.AppendBlock), and every audit reads the index's
	// records; internal/index and internal/workload are in scope so
	// wall-clock or randomness can't leak into replayed streams.
	"index", "workload",
	// internal/stream holds the one apply rule every ingest path runs; it
	// reads time only through the clock its caller injects.
	"stream",
}

// Analyzers returns the full analyzer suite in its canonical order: the
// determinism checks first (walltime, unseededrand, maporder, errdrop,
// ctxleak), then the concurrency-and-durability suite (lockheld, goleak,
// fsyncrename, errenvelope), then deadcode, the one module-wide check.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		Walltime, UnseededRand, MapOrder, ErrDrop, CtxLeak,
		LockHeld, GoLeak, FsyncRename, ErrEnvelope, DeadCode,
	}
}

// fixtureFor extracts the analyzer name from a fixture package path —
// packages under .../lint/testdata/src/<analyzer> exist to demonstrate that
// exact analyzer firing, so each analyzer treats its own fixture directory
// as in scope.
func fixtureFor(pkgPath string) string {
	const marker = "/lint/testdata/src/"
	i := strings.LastIndex(pkgPath, marker)
	if i < 0 {
		return ""
	}
	rest := pkgPath[i+len(marker):]
	if strings.Contains(rest, "/") {
		return ""
	}
	return rest
}

// internalOf returns the path below the module's internal/ directory
// ("chainaudit/internal/p2p" → "p2p"), or "" for non-internal packages.
func internalOf(pkgPath string) string {
	const marker = "/internal/"
	i := strings.Index(pkgPath, marker)
	if i < 0 {
		return ""
	}
	return pkgPath[i+len(marker):]
}

// scopeFor builds an InScope matcher: the named internal package trees plus
// the analyzer's own fixture directory.
func scopeFor(analyzer string, segments ...string) func(string) bool {
	return func(pkgPath string) bool {
		if fixtureFor(pkgPath) == analyzer {
			return true
		}
		seg := internalOf(pkgPath)
		if seg == "" {
			return false
		}
		for _, s := range segments {
			if seg == s || strings.HasPrefix(seg, s+"/") {
				return true
			}
		}
		return false
	}
}

// calleeOf resolves a call expression to the function or method object it
// invokes, or nil for builtins, conversions, and calls of function values.
func calleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

// sigOf returns fn's signature. (*types.Func).Signature() only arrived in
// go1.23 and the module pins go1.22, so go via the Type() assertion.
func sigOf(fn *types.Func) *types.Signature {
	return fn.Type().(*types.Signature)
}

// pkgPathOf returns the import path of the package a function belongs to,
// or "" for builtins and universe-scope objects.
func pkgPathOf(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	return fn.Pkg().Path()
}

// isPkgCall reports whether call invokes a package-level function of the
// package with import path pkgPath whose name is one of names.
func isPkgCall(info *types.Info, call *ast.CallExpr, pkgPath string, names ...string) bool {
	fn := calleeOf(info, call)
	if fn == nil || pkgPathOf(fn) != pkgPath || sigOf(fn).Recv() != nil {
		return false
	}
	for _, n := range names {
		if fn.Name() == n {
			return true
		}
	}
	return false
}
