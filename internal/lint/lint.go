// Package lint is the repo-specific static-analysis suite guarding the
// properties the reproduction's credibility rests on: a rerun with the same
// seed must produce byte-identical tables and figures, and audit errors must
// never be silently dropped. Every determinism bug shipped so far —
// wall-clock stamping of relayed transactions, map-ordered report pools,
// swallowed audit errors — belongs to a small set of mechanically
// recognizable patterns; the analyzers here reject those patterns at `make
// check` time instead of waiting for a human to notice skewed bytes.
//
// The framework runs on the pure go/* standard library (go/parser, go/ast,
// go/types) so it works in a hermetic build with no module cache. Findings
// carry file:line positions, the analyzer name, and a one-line rationale. A
//
//	//lint:allow <analyzer> <reason>
//
// directive on the offending line (or the line directly above it) suppresses
// the finding while keeping an audit trail: the reason is mandatory, unknown
// analyzer names are themselves findings, and a directive that suppresses
// nothing is reported as stale so the allowlist can never rot. See DESIGN.md
// §9 for the analyzer catalogue and allowlist policy.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Diag is one raw diagnostic produced by an analyzer, before suppression
// and position resolution.
type Diag struct {
	Pos     token.Pos
	Message string
}

// Analyzer is one repo-specific check.
type Analyzer struct {
	// Name is the analyzer's identifier, used in output and in
	// //lint:allow directives.
	Name string
	// Doc is a one-line description of the bug class the analyzer rejects.
	Doc string
	// InScope filters packages by import path; nil means every package.
	InScope func(pkgPath string) bool
	// Run inspects one package and returns its diagnostics.
	Run func(p *Package) []Diag
}

// Finding is one resolved diagnostic: position, analyzer, rationale, and —
// when a //lint:allow directive covers it — the suppression reason.
type Finding struct {
	Analyzer   string         `json:"analyzer"`
	Pos        token.Position `json:"-"`
	File       string         `json:"file"`
	Line       int            `json:"line"`
	Message    string         `json:"message"`
	Suppressed bool           `json:"suppressed"`
	Reason     string         `json:"reason,omitempty"`
}

// DirectiveAnalyzer is the pseudo-analyzer name under which directive
// misuse (malformed, unknown-analyzer, or stale //lint:allow comments) is
// reported. Directive findings cannot themselves be suppressed.
const DirectiveAnalyzer = "directive"

const directivePrefix = "//lint:allow"

// directive is one parsed //lint:allow comment.
type directive struct {
	pos      token.Pos
	file     string
	line     int
	analyzer string
	reason   string
	bad      string // non-empty: misuse message, directive is inert
	used     bool
}

// collectDirectives parses every //lint:allow comment in the package.
// known maps valid analyzer names.
func collectDirectives(p *Package, known map[string]bool) []*directive {
	var out []*directive
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, directivePrefix) {
					continue
				}
				rest := strings.TrimPrefix(c.Text, directivePrefix)
				if rest != "" && !strings.HasPrefix(rest, " ") && !strings.HasPrefix(rest, "\t") {
					continue // e.g. //lint:allowance — not ours
				}
				pos := p.Fset.Position(c.Pos())
				d := &directive{pos: c.Pos(), file: pos.Filename, line: pos.Line}
				fields := strings.Fields(rest)
				switch {
				case len(fields) == 0:
					d.bad = "//lint:allow needs an analyzer name and a reason: //lint:allow <analyzer> <reason>"
				case len(fields) == 1:
					d.bad = fmt.Sprintf("//lint:allow %s is missing its reason — suppressions must leave an audit trail", fields[0])
				case !known[fields[0]]:
					d.bad = fmt.Sprintf("//lint:allow names unknown analyzer %q (known: %s)", fields[0], strings.Join(sortedNames(known), ", "))
				default:
					d.analyzer = fields[0]
					d.reason = strings.Join(fields[1:], " ")
				}
				out = append(out, d)
			}
		}
	}
	return out
}

func sortedNames(m map[string]bool) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Run executes every in-scope analyzer over every package, applies
// //lint:allow suppression, reports directive misuse and stale directives,
// and returns the findings sorted by position. State shared across the
// packages, such as deadcode's module-wide use set, is computed at most
// once per Run.
func Run(pkgs []*Package, analyzers []*Analyzer) []Finding {
	known := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		known[a.Name] = true
	}
	var out []Finding
	rs := &runState{pkgs: pkgs}
	for _, p := range pkgs {
		p.run = rs
		dirs := collectDirectives(p, known)
		type key struct {
			file     string
			line     int
			analyzer string
		}
		byKey := make(map[key][]*directive)
		for _, d := range dirs {
			if d.bad == "" {
				byKey[key{d.file, d.line, d.analyzer}] = append(byKey[key{d.file, d.line, d.analyzer}], d)
			}
		}
		for _, a := range analyzers {
			if a.InScope != nil && !a.InScope(p.Path) {
				continue
			}
			for _, dg := range a.Run(p) {
				pos := p.Fset.Position(dg.Pos)
				f := Finding{Analyzer: a.Name, Pos: pos, File: pos.Filename, Line: pos.Line, Message: dg.Message}
				// A directive suppresses findings on its own line (trailing
				// comment) or the line directly below it (standalone comment).
				for _, line := range []int{pos.Line, pos.Line - 1} {
					for _, d := range byKey[key{pos.Filename, line, a.Name}] {
						d.used = true
						f.Suppressed, f.Reason = true, d.reason
					}
				}
				out = append(out, f)
			}
		}
		for _, d := range dirs {
			pos := p.Fset.Position(d.pos)
			switch {
			case d.bad != "":
				out = append(out, Finding{Analyzer: DirectiveAnalyzer, Pos: pos, File: pos.Filename, Line: pos.Line, Message: d.bad})
			case !d.used:
				out = append(out, Finding{
					Analyzer: DirectiveAnalyzer, Pos: pos, File: pos.Filename, Line: pos.Line,
					Message: fmt.Sprintf("//lint:allow %s suppresses nothing — delete the stale directive or fix the line it covers", d.analyzer),
				})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return out
}

// Unsuppressed counts the findings not covered by a //lint:allow directive.
func Unsuppressed(fs []Finding) int {
	n := 0
	for _, f := range fs {
		if !f.Suppressed {
			n++
		}
	}
	return n
}

// inspectAll applies fn to every node of every file in p.
func inspectAll(p *Package, fn func(ast.Node) bool) {
	for _, f := range p.Files {
		ast.Inspect(f, fn)
	}
}
