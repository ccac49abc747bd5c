package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Module identifies the Go module under analysis.
type Module struct {
	Path string // module path declared in go.mod
	Dir  string // absolute directory containing go.mod
	Go   string // language version from the go directive ("1.22"), "" if absent
}

// FindModule walks up from dir to the nearest go.mod and returns the module
// it declares.
func FindModule(dir string) (*Module, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	for d := abs; ; {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			mod := &Module{Dir: d}
			for _, line := range strings.Split(string(data), "\n") {
				fields := strings.Fields(line)
				if len(fields) == 2 && fields[0] == "module" {
					mod.Path = fields[1]
				}
				if len(fields) == 2 && fields[0] == "go" {
					mod.Go = fields[1]
				}
			}
			if mod.Path == "" {
				return nil, fmt.Errorf("lint: %s/go.mod has no module directive", d)
			}
			return mod, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return nil, fmt.Errorf("lint: no go.mod at or above %s", abs)
		}
		d = parent
	}
}

// Package is one parsed, type-checked package ready for analysis.
type Package struct {
	Path  string // import path
	Dir   string // absolute source directory
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	// sums lazily caches the intra-package call summaries the concurrency
	// analyzers share (see summary.go / (*Package).callSummaries).
	sums summaries
	// loader is the Loader that built the package, nil for packages
	// type-checked elsewhere; run is the state of the Run analyzing it.
	loader *Loader
	run    *runState
}

// Loader parses and type-checks module packages on the pure go/* standard
// library: module-internal imports resolve recursively through the loader
// itself, everything else through the source importer over GOROOT. No
// module cache, export data, or golang.org/x/tools involvement — the loader
// works in a hermetic build environment.
type Loader struct {
	Mod     *Module
	fset    *token.FileSet
	std     types.ImporterFrom
	pkgs    map[string]*Package
	loading map[string]bool
}

// NewLoader returns a loader for mod. Loaders memoize: loading a package
// twice (directly or as a dependency) type-checks it once.
func NewLoader(mod *Module) *Loader {
	fset := token.NewFileSet()
	return &Loader{
		Mod:     mod,
		fset:    fset,
		std:     importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		pkgs:    make(map[string]*Package),
		loading: make(map[string]bool),
	}
}

// Import implements types.Importer over the module plus the standard
// library, which is all a hermetic build can reference.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.Mod.Path || strings.HasPrefix(path, l.Mod.Path+"/") {
		p, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return l.std.ImportFrom(path, l.Mod.Dir, 0)
}

func (l *Loader) dirFor(path string) string {
	if path == l.Mod.Path {
		return l.Mod.Dir
	}
	return filepath.Join(l.Mod.Dir, filepath.FromSlash(strings.TrimPrefix(path, l.Mod.Path+"/")))
}

func (l *Loader) pathFor(dir string) (string, error) {
	abs := dir
	if !filepath.IsAbs(abs) {
		abs = filepath.Join(l.Mod.Dir, abs)
	}
	rel, err := filepath.Rel(l.Mod.Dir, abs)
	if err != nil {
		return "", err
	}
	if rel == "." {
		return l.Mod.Path, nil
	}
	if strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("lint: %s is outside module %s", dir, l.Mod.Path)
	}
	return l.Mod.Path + "/" + filepath.ToSlash(rel), nil
}

// Load parses and type-checks the package in dir (absolute, or relative to
// the module root). Repeat calls return the cached package.
func (l *Loader) Load(dir string) (*Package, error) {
	path, err := l.pathFor(dir)
	if err != nil {
		return nil, err
	}
	return l.load(path)
}

func (l *Loader) load(path string) (*Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("lint: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)
	dir := l.dirFor(path)
	names, err := goFiles(dir)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("lint: no non-test Go files in %s", dir)
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	var terrs []error
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { terrs = append(terrs, err) },
	}
	if l.Mod.Go != "" {
		conf.GoVersion = "go" + l.Mod.Go
	}
	tp, err := conf.Check(path, l.fset, files, info)
	if len(terrs) > 0 {
		return nil, fmt.Errorf("lint: type-checking %s: %w", path, terrs[0])
	}
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", path, err)
	}
	p := &Package{Path: path, Dir: dir, Fset: l.fset, Files: files, Types: tp, Info: info, loader: l}
	l.pkgs[path] = p
	return p, nil
}

// LoadAll loads every package "./..." matches from the module root.
func (l *Loader) LoadAll() ([]*Package, error) {
	dirs, err := l.Expand(l.Mod.Dir, []string{"./..."})
	if err != nil {
		return nil, err
	}
	pkgs := make([]*Package, 0, len(dirs))
	for _, d := range dirs {
		p, err := l.Load(d)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// goFiles lists dir's non-test Go files in sorted (deterministic) order.
func goFiles(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// Expand resolves go-style package patterns to source directories. Relative
// patterns resolve against base; a trailing "/..." walks the subtree. The
// walk skips testdata, hidden, and underscore directories (matching the go
// tool), but an explicit non-recursive pattern may point anywhere in the
// module — that is how fixture packages are linted on purpose.
func (l *Loader) Expand(base string, patterns []string) ([]string, error) {
	seen := make(map[string]bool)
	var dirs []string
	add := func(dir string) {
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, pat := range patterns {
		p, recursive := pat, false
		if p == "..." {
			p, recursive = ".", true
		} else if strings.HasSuffix(p, "/...") {
			p, recursive = strings.TrimSuffix(p, "/..."), true
		}
		if !filepath.IsAbs(p) {
			p = filepath.Join(base, p)
		}
		if !recursive {
			names, err := goFiles(p)
			if err != nil {
				return nil, fmt.Errorf("lint: pattern %s: %w", pat, err)
			}
			if len(names) == 0 {
				return nil, fmt.Errorf("lint: pattern %s: no non-test Go files in %s", pat, p)
			}
			add(p)
			continue
		}
		root := p
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			if path != root {
				name := d.Name()
				if name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
					return fs.SkipDir
				}
			}
			if names, err := goFiles(path); err == nil && len(names) > 0 {
				add(path)
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("lint: pattern %s: %w", pat, err)
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}
