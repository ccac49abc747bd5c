package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// DeadCode rejects exported API in internal/ that nothing outside tests
// uses: package-level funcs, types, vars and consts, and exported methods.
// Uses are counted from types.Info.Uses over every non-test file of the
// module, whatever packages the run was given (see moduleUses), so a name
// only perfbench or a command calls stays live. A method whose name some
// interface declares — in a module package or in a package the module
// imports, error included — counts as used, because it may be reached
// through that interface. A name only tests need either moves into its
// package's _test.go or carries a //lint:allow deadcode naming the test.
var DeadCode = &Analyzer{
	Name: "deadcode",
	Doc:  "exported internal/ API with no use in any non-test file of the module is code a reader must check for no gain",
	InScope: func(pkgPath string) bool {
		if fix := fixtureFor(pkgPath); fix != "" {
			return fix == "deadcode"
		}
		return internalOf(pkgPath) != ""
	},
	Run: func(p *Package) []Diag {
		u := p.run.moduleUses()
		if u.err != nil {
			return []Diag{{Pos: p.Files[0].Name.Pos(), Message: fmt.Sprintf("cannot count module-wide uses: %v", u.err)}}
		}
		var out []Diag
		report := func(id *ast.Ident, kind string) {
			obj := p.Info.Defs[id]
			if obj == nil || u.used[obj] {
				return
			}
			out = append(out, Diag{Pos: id.Pos(), Message: fmt.Sprintf(
				"exported %s %s has no use in any non-test file of the module: delete it, move it into a _test.go file, or //lint:allow deadcode naming the test that needs it",
				kind, qualified(p, obj))})
		}
		for _, f := range p.Files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					switch {
					case !d.Name.IsExported():
					case d.Recv == nil:
						report(d.Name, "func")
					case !u.ifaceMethods[d.Name.Name]:
						report(d.Name, "method")
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							if s.Name.IsExported() {
								report(s.Name, "type")
							}
						case *ast.ValueSpec:
							for _, n := range s.Names {
								if n.IsExported() {
									report(n, strings.ToLower(d.Tok.String()))
								}
							}
						}
					}
				}
			}
		}
		return out
	},
}

// qualified names a declared identifier for a finding: "stats.LogBins",
// or "index.BlockIndex.BlocksOf" for a method.
func qualified(p *Package, obj types.Object) string {
	name := obj.Name()
	if fn, ok := obj.(*types.Func); ok && sigOf(fn).Recv() != nil {
		t := sigOf(fn).Recv().Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			name = named.Obj().Name() + "." + name
		}
	}
	return p.Types.Name() + "." + name
}

// runState is what one Run shares across the packages it analyzes.
type runState struct {
	pkgs []*Package
	uses *useSet
}

// useSet is the module-wide use information deadcode reads: every object a
// non-test file refers to, and every method name an interface declares.
type useSet struct {
	used         map[types.Object]bool
	ifaceMethods map[string]bool
	err          error
}

// moduleUses computes, once per Run, the use set over the run's packages
// plus — when they came from a Loader — every package of the module, so the
// verdict on a package does not depend on which patterns the run was given.
func (r *runState) moduleUses() *useSet {
	if r.uses != nil {
		return r.uses
	}
	u := &useSet{used: make(map[types.Object]bool), ifaceMethods: map[string]bool{"Error": true}}
	r.uses = u
	all := r.pkgs
	for _, p := range r.pkgs {
		if p.loader == nil {
			continue
		}
		mod, err := p.loader.LoadAll()
		if err != nil {
			u.err = err
			return u
		}
		all = append(mod, r.pkgs...)
		break
	}
	seen := make(map[*Package]bool)
	imported := make(map[*types.Package]bool)
	for _, p := range all {
		if seen[p] {
			continue
		}
		seen[p] = true
		for _, obj := range p.Info.Uses {
			u.used[origin(obj)] = true
		}
		inspectAll(p, func(n ast.Node) bool {
			if it, ok := n.(*ast.InterfaceType); ok {
				if iface, ok := p.Info.TypeOf(it).(*types.Interface); ok {
					u.addIface(iface)
				}
			}
			return true
		})
		for _, imp := range p.Types.Imports() {
			imported[imp] = true
		}
	}
	for imp := range imported {
		scope := imp.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				if iface, ok := tn.Type().Underlying().(*types.Interface); ok {
					u.addIface(iface)
				}
			}
		}
	}
	return u
}

func (u *useSet) addIface(iface *types.Interface) {
	for i := 0; i < iface.NumMethods(); i++ {
		u.ifaceMethods[iface.Method(i).Name()] = true
	}
}

// origin maps a use of an instantiated generic func or field back to the
// object its declaration defines.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}
