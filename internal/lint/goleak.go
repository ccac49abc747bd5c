package lint

import (
	"go/ast"
)

// GoLeak rejects goroutines launched with no lifecycle in the long-lived
// packages (serve, observer, pipeline, p2p, stream): nothing reachable
// from the goroutine's body ties it to a context, a WaitGroup, a channel
// join, or an owning net connection, so nothing can ever stop it or wait
// for it.
// In a process meant to serve traffic for months, every such launch is a
// slow leak — each request or reconnect strands one more goroutine.
//
// Evidence that bounds a goroutine (checked in its body and, through the
// package call summaries, in the declared same-package functions it
// calls): a context.Context reference, a sync.WaitGroup reference, any
// channel operation (send, receive, range, select, close), or a reference
// to a net conn/listener whose Close tears the goroutine down. Goroutines
// whose target cannot be resolved (function values, cross-package calls)
// are skipped — the analyzer only flags what it can prove.
var GoLeak = &Analyzer{
	Name:    "goleak",
	Doc:     "goroutines without a context, WaitGroup, or channel lifecycle leak in long-lived packages",
	InScope: scopeFor("goleak", "serve", "observer", "pipeline", "p2p", "stream"),
	Run: func(p *Package) []Diag {
		sums := p.callSummaries()
		var out []Diag
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				gs, ok := n.(*ast.GoStmt)
				if !ok {
					return true
				}
				bounded, known := goroutineBounded(p, f, gs, sums)
				if !known || bounded {
					return true
				}
				out = append(out, Diag{
					Pos: gs.Pos(),
					Message: "goroutine is launched without a lifecycle: no context, WaitGroup, channel join, " +
						"or owning connection reachable from its body — nothing can stop it or wait for it",
				})
				return true
			})
		}
		return out
	},
}

// goroutineBounded resolves the go statement's target and reports whether
// its body carries lifecycle evidence. known is false when the target
// cannot be resolved to a literal or a declared same-package function.
func goroutineBounded(p *Package, f *ast.File, gs *ast.GoStmt, sums summaries) (bounded, known bool) {
	// Arguments evaluated at launch don't bound the goroutine, but a
	// context, WaitGroup, or channel handed in as an argument is the
	// lifecycle flowing into it — accept that as evidence too.
	for _, arg := range gs.Call.Args {
		if exprLifecycle(p, arg) {
			return true, true
		}
	}
	if lit := resolveGoFunc(p.Info, f, gs); lit != nil {
		return bodyLifecycle(p, lit.Body, sums), true
	}
	if fn := calleeOf(p.Info, gs.Call); fn != nil {
		if facts, ok := sums[fn]; ok {
			return facts.lifecycle, true
		}
	}
	return false, false
}

// bodyLifecycle reports direct lifecycle evidence in body, or evidence in
// a declared same-package function the body calls.
func bodyLifecycle(p *Package, body *ast.BlockStmt, sums summaries) bool {
	if lifecycleEvidence(p.Info, body) {
		return true
	}
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if fn := calleeOf(p.Info, call); fn != nil {
				if facts, ok := sums[fn]; ok && facts.lifecycle {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

// exprLifecycle reports whether a single expression references a
// lifecycle-bearing value (context, WaitGroup, channel, net conn).
func exprLifecycle(p *Package, expr ast.Expr) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if found {
			return false
		}
		if e, ok := n.(ast.Expr); ok {
			if t := p.Info.Types[e].Type; t != nil {
				if isContextType(t) || isNamedFrom(t, "sync", "WaitGroup") || isNetConnType(t) || isChanType(p.Info, e) {
					found = true
				}
			}
		}
		return !found
	})
	return found
}
