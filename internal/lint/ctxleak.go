package lint

import (
	"go/ast"
	"go/types"
)

// CtxLeak rejects goroutines that capture a context.Context but never honor
// it: no select on ctx.Done(), no ctx.Err() polling, and no delegation of
// the context to a callee. Such a goroutine looks cancellable but runs to
// completion after its request dies — in the pipeline and the audit service
// that means watchdog-abandoned work silently pinning workers (which is why
// pipeline.Bounded cancels the context of a call it abandons).
var CtxLeak = &Analyzer{
	Name:    "ctxleak",
	Doc:     "goroutines capturing a context but never selecting on ctx.Done()/checking ctx.Err() outlive cancellation",
	InScope: scopeFor("ctxleak", "pipeline", "serve"),
	Run: func(p *Package) []Diag {
		var out []Diag
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				gs, ok := n.(*ast.GoStmt)
				if !ok {
					return true
				}
				lit := resolveGoFunc(p.Info, f, gs)
				if lit == nil {
					return true
				}
				if !refsContext(p.Info, lit.Body) || honorsContext(p.Info, lit.Body) {
					return true
				}
				out = append(out, Diag{
					Pos: gs.Pos(),
					Message: "goroutine captures a context.Context but never honors cancellation " +
						"(no ctx.Done() select, no ctx.Err() check, context never passed on): it outlives the request that spawned it",
				})
				return true
			})
		}
		return out
	},
}

// resolveGoFunc returns the function literal a go statement runs: either
// directly (go func(){...}()) or through a local variable bound to a
// literal in the same file (w := func(){...}; go w()).
func resolveGoFunc(info *types.Info, file *ast.File, gs *ast.GoStmt) *ast.FuncLit {
	switch fun := ast.Unparen(gs.Call.Fun).(type) {
	case *ast.FuncLit:
		return fun
	case *ast.Ident:
		obj := info.Uses[fun]
		if obj == nil {
			return nil
		}
		var lit *ast.FuncLit
		ast.Inspect(file, func(n ast.Node) bool {
			if lit != nil {
				return false
			}
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != len(as.Rhs) {
				return true
			}
			for i, lhs := range as.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || info.Defs[id] != obj {
					continue
				}
				if l, ok := ast.Unparen(as.Rhs[i]).(*ast.FuncLit); ok {
					lit = l
				}
			}
			return true
		})
		return lit
	}
	return nil
}

func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// refsContext reports whether the body references any context-typed
// variable (captured or parameter).
func refsContext(info *types.Info, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if obj := info.Uses[id]; obj != nil {
			if _, isVar := obj.(*types.Var); isVar && isContextType(obj.Type()) {
				found = true
			}
		}
		return !found
	})
	return found
}

// honorsContext reports whether the body gives cancellation a path: calls
// Done() or Err() on a context, or passes a context to any callee.
func honorsContext(info *types.Info, body *ast.BlockStmt) bool {
	honored := false
	ast.Inspect(body, func(n ast.Node) bool {
		if honored {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if name := sel.Sel.Name; name == "Done" || name == "Err" {
				if tv, ok := info.Types[sel.X]; ok && isContextType(tv.Type) {
					honored = true
					return false
				}
			}
		}
		for _, arg := range call.Args {
			if tv, ok := info.Types[arg]; ok && isContextType(tv.Type) {
				honored = true
				return false
			}
		}
		return true
	})
	return honored
}
