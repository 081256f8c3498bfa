package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, parsed and (best-effort) type-checked
// package. When Errs is non-empty the package is degraded: files that
// failed to parse are absent from Files, and Info/Types may be
// incomplete — but whatever parsed is still analyzable, so a single
// broken file never hides findings in the rest of the tree.
type Package struct {
	// Path is the import path (drnet/internal/core) or, for fixture
	// loads, the synthetic path supplied by the caller.
	Path string
	// Dir is the directory the files came from.
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	// Errs holds parse and type errors encountered while loading.
	Errs []error
}

// Loader discovers, parses and type-checks packages of the enclosing
// module using only the standard library: module-local imports are
// resolved by directory, everything else through the go/importer
// source importer (which reads GOROOT/src). Loaded packages are cached
// by import path, so shared dependencies type-check once.
type Loader struct {
	fset       *token.FileSet
	moduleRoot string
	modulePath string
	std        types.Importer
	cache      map[string]*loadResult
}

type loadResult struct {
	pkg *Package
	// loading guards against import cycles: a package seen while its
	// own load is still in progress resolves to an error, not a hang.
	loading bool
}

// NewLoader locates the module containing dir (walking up to the
// nearest go.mod) and returns a loader rooted there.
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root := abs
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			return nil, fmt.Errorf("analysis: no go.mod above %s", abs)
		}
		root = parent
	}
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	modPath := ""
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			modPath = strings.TrimSpace(rest)
			break
		}
	}
	if modPath == "" {
		return nil, fmt.Errorf("analysis: no module directive in %s/go.mod", root)
	}
	fset := token.NewFileSet()
	return &Loader{
		fset:       fset,
		moduleRoot: root,
		modulePath: modPath,
		std:        importer.ForCompiler(fset, "source", nil),
		cache:      map[string]*loadResult{},
	}, nil
}

// Fset returns the loader's shared file set; all positions in loaded
// packages resolve through it.
func (l *Loader) Fset() *token.FileSet { return l.fset }

// ModuleRoot returns the absolute directory containing go.mod; SARIF
// file URIs are rooted here so they stay stable across checkouts.
func (l *Loader) ModuleRoot() string { return l.moduleRoot }

// Load expands the given patterns — "./...", "./dir/...", "./dir", or
// plain import paths within the module — and returns the matched
// packages sorted by import path. Directories without buildable
// non-test Go files are skipped silently, matching `go list ./...`.
// Per-package parse/type errors land in Package.Errs, not in err; err
// is reserved for unusable patterns.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	dirs := map[string]bool{}
	for _, pat := range patterns {
		switch {
		case pat == "./..." || pat == "...":
			l.walkDirs(l.moduleRoot, dirs)
		case strings.HasSuffix(pat, "/..."):
			base := strings.TrimSuffix(pat, "/...")
			l.walkDirs(filepath.Join(l.moduleRoot, filepath.FromSlash(strings.TrimPrefix(base, "./"))), dirs)
		default:
			p := pat
			if rest, ok := strings.CutPrefix(p, l.modulePath+"/"); ok {
				p = "./" + rest
			}
			dir := filepath.Join(l.moduleRoot, filepath.FromSlash(strings.TrimPrefix(p, "./")))
			st, err := os.Stat(dir)
			if err != nil || !st.IsDir() {
				return nil, fmt.Errorf("analysis: pattern %q matches no directory", pat)
			}
			dirs[dir] = true
		}
	}
	var pkgs []*Package
	for dir := range dirs {
		if !l.hasGoFiles(dir) {
			continue
		}
		rel, err := filepath.Rel(l.moduleRoot, dir)
		if err != nil {
			continue
		}
		path := l.modulePath
		if rel != "." {
			path = l.modulePath + "/" + filepath.ToSlash(rel)
		}
		pkgs = append(pkgs, l.loadPath(path, dir))
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, nil
}

// LoadDir loads one directory as a package under the supplied import
// path, bypassing module layout — the fixture harness uses it to give
// testdata packages the package path an analyzer's scoping rules
// expect (e.g. a fixture analyzed "as if" it were drnet/internal/core).
func (l *Loader) LoadDir(dir, asPath string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	if !l.hasGoFiles(abs) {
		return nil, fmt.Errorf("analysis: no non-test Go files in %s", dir)
	}
	return l.loadPath(asPath, abs), nil
}

// walkDirs collects candidate package directories under root, skipping
// the trees `go list` would skip: testdata, vendor, VCS metadata, and
// any name starting with "." or "_".
func (l *Loader) walkDirs(root string, out map[string]bool) {
	filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (name == "testdata" || name == "vendor" ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		out[path] = true
		return nil
	})
}

func (l *Loader) hasGoFiles(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		n := e.Name()
		if !e.IsDir() && strings.HasSuffix(n, ".go") && !strings.HasSuffix(n, "_test.go") {
			return true
		}
	}
	return false
}

// loadPath parses and type-checks the package in dir, caching by
// import path. It never returns nil: failures degrade to a Package
// whose Errs explain what is missing.
func (l *Loader) loadPath(path, dir string) *Package {
	if r, ok := l.cache[path]; ok {
		if r.loading {
			p := &Package{Path: path, Dir: dir, Fset: l.fset, Info: newInfo()}
			p.Errs = append(p.Errs, fmt.Errorf("analysis: import cycle through %s", path))
			return p
		}
		return r.pkg
	}
	res := &loadResult{loading: true}
	l.cache[path] = res

	pkg := &Package{Path: path, Dir: dir, Fset: l.fset, Info: newInfo()}
	ents, err := os.ReadDir(dir)
	if err != nil {
		pkg.Errs = append(pkg.Errs, err)
		res.pkg, res.loading = pkg, false
		return pkg
	}
	var names []string
	for _, e := range ents {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") {
			continue
		}
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, n), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			pkg.Errs = append(pkg.Errs, err)
			if f == nil {
				continue
			}
		}
		pkg.Files = append(pkg.Files, f)
	}
	if len(pkg.Files) == 0 {
		pkg.Errs = append(pkg.Errs, fmt.Errorf("analysis: no parseable Go files in %s", dir))
		res.pkg, res.loading = pkg, false
		return pkg
	}
	conf := types.Config{
		Importer: (*loaderImporter)(l),
		Error:    func(err error) { pkg.Errs = append(pkg.Errs, err) },
	}
	tpkg, err := conf.Check(path, l.fset, pkg.Files, pkg.Info)
	if err != nil && len(pkg.Errs) == 0 {
		pkg.Errs = append(pkg.Errs, err)
	}
	pkg.Types = tpkg
	res.pkg, res.loading = pkg, false
	return pkg
}

// loaderImporter resolves imports during type checking: module-local
// paths recurse through the loader, everything else (the standard
// library) goes to the source importer.
type loaderImporter Loader

func (li *loaderImporter) Import(path string) (*types.Package, error) {
	l := (*Loader)(li)
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.modulePath || strings.HasPrefix(path, l.modulePath+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.modulePath), "/")
		dir := filepath.Join(l.moduleRoot, filepath.FromSlash(rel))
		pkg := l.loadPath(path, dir)
		if pkg.Types == nil {
			return nil, fmt.Errorf("analysis: could not load %s: %v", path, pkg.Errs)
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

func newInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
}
