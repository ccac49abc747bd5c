package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// LockHeld rejects blocking operations — file and network I/O, HTTP
// round-trips and response writes, channel operations, blocking selects,
// sync waits, and calls to same-package helpers that do any of those —
// while a sync.Mutex or sync.RWMutex is held. A critical section that
// blocks stalls every contender for the lock: in chainauditd one slow
// disk write under set.mu would freeze all ingest and audit traffic for
// that data set. The one place the repo blocks under a lock on purpose —
// the WAL append that must commit under the same set.mu hold as the
// in-memory apply — carries an audited //lint:allow naming that ordering
// invariant.
//
// Held intervals are tracked per function body (nested function literals
// are separate scopes): an acquire pairs greedily with the earliest
// following release of the same lock expression and mode, and a deferred
// release extends the interval to the end of the body. Lock expressions
// are compared textually (types.ExprString), so aliasing is invisible —
// an under-approximation that keeps every finding provable from the
// source alone.
var LockHeld = &Analyzer{
	Name:    "lockheld",
	Doc:     "blocking I/O, HTTP round-trips, or channel operations while a sync.Mutex/RWMutex is held stall every contender",
	InScope: scopeFor("lockheld", "serve", "observer", "pipeline", "p2p", "stream"),
	Run: func(p *Package) []Diag {
		sums := p.callSummaries()
		var out []Diag
		for _, f := range p.Files {
			for _, body := range functionBodies(f) {
				out = append(out, lockHeldIn(p, body, sums)...)
			}
		}
		return out
	},
}

// functionBodies returns every function body in the file — declarations
// and literals — each to be scanned as its own scope.
func functionBodies(f *ast.File) []*ast.BlockStmt {
	var bodies []*ast.BlockStmt
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Body != nil {
				bodies = append(bodies, n.Body)
			}
		case *ast.FuncLit:
			bodies = append(bodies, n.Body)
		}
		return true
	})
	return bodies
}

// lockEvent is one Lock/RLock/Unlock/RUnlock call in a body.
type lockEvent struct {
	pos      token.Pos
	key      string // lock expression + "/r" or "/w"
	display  string // for messages: "set.mu (Lock)" / "s.mu (RLock)"
	acquire  bool
	deferred bool
	line     int
}

// heldInterval is one span during which a lock is held.
type heldInterval struct {
	from, to token.Pos
	display  string
	line     int // line of the acquire, for the message
}

// lockHeldIn reports blocking sites inside held-lock intervals of body.
func lockHeldIn(p *Package, body *ast.BlockStmt, sums summaries) []Diag {
	events := lockEvents(p, body)
	acquires := 0
	for _, e := range events {
		if e.acquire {
			acquires++
		}
	}
	if acquires == 0 {
		return nil
	}

	// Pair each acquire with the earliest later non-deferred release of
	// the same key; failing that, a deferred release (or none at all)
	// holds the lock to the end of the body.
	used := make([]bool, len(events))
	var intervals []heldInterval
	for i, e := range events {
		if !e.acquire {
			continue
		}
		end := body.End()
		for j := i + 1; j < len(events); j++ {
			r := events[j]
			if used[j] || r.acquire || r.deferred || r.key != e.key {
				continue
			}
			used[j] = true
			end = r.pos
			break
		}
		intervals = append(intervals, heldInterval{from: e.pos, to: end, display: e.display, line: e.line})
	}

	var out []Diag
	for _, site := range blockingSites(p.Info, body, sums) {
		for _, iv := range intervals {
			if site.pos > iv.from && site.pos < iv.to {
				out = append(out, Diag{
					Pos: site.pos,
					Message: fmt.Sprintf("%s while %s acquired on line %d is held: the critical section blocks every contender for the lock",
						site.what, iv.display, iv.line),
				})
				break
			}
		}
	}
	return out
}

// lockEvents collects the body's sync.Mutex/RWMutex Lock/Unlock calls in
// source order, skipping nested function literals and go statements.
// A deferred unlock is recorded as a deferred release; any other deferred
// call is ignored (it runs outside the scanned timeline).
func lockEvents(p *Package, body *ast.BlockStmt) []lockEvent {
	var events []lockEvent
	record := func(call *ast.CallExpr, deferred bool) bool {
		ev, ok := classifyLockCall(p, call)
		if !ok {
			return false
		}
		ev.deferred = deferred
		events = append(events, ev)
		return true
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit, *ast.GoStmt:
			return false
		case *ast.DeferStmt:
			record(n.Call, true)
			return false
		case *ast.CallExpr:
			record(n, false)
		}
		return true
	})
	return events
}

// classifyLockCall recognizes mu.Lock/RLock/Unlock/RUnlock on a
// sync.Mutex or sync.RWMutex receiver.
func classifyLockCall(p *Package, call *ast.CallExpr) (lockEvent, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return lockEvent{}, false
	}
	fn := calleeOf(p.Info, call)
	if fn == nil || pkgPathOf(fn) != "sync" {
		return lockEvent{}, false
	}
	if !recvNamed(fn, "sync", "Mutex") && !recvNamed(fn, "sync", "RWMutex") {
		return lockEvent{}, false
	}
	var mode string
	var acquire bool
	switch fn.Name() {
	case "Lock":
		mode, acquire = "w", true
	case "Unlock":
		mode, acquire = "w", false
	case "RLock":
		mode, acquire = "r", true
	case "RUnlock":
		mode, acquire = "r", false
	default:
		return lockEvent{}, false
	}
	expr := types.ExprString(sel.X)
	verb := "Lock"
	if mode == "r" {
		verb = "RLock"
	}
	return lockEvent{
		pos:     call.Lparen,
		key:     expr + "/" + mode,
		display: fmt.Sprintf("%s (%s)", expr, verb),
		acquire: acquire,
		line:    p.Fset.Position(call.Lparen).Line,
	}, true
}
