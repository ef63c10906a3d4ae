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

// Package is one parsed and type-checked package ready for analysis.
type Package struct {
	ImportPath string
	Dir        string
	// Module is the path of the module the package belongs to; the
	// determinism rules read the module-relative path from it.
	Module string
	Fset   *token.FileSet
	Files  []*ast.File
	Types  *types.Package
	Info   *types.Info
}

// Loader parses and type-checks module packages using only the standard
// library: module-local imports are resolved from the loader's own
// results (type-checked in dependency order) and everything else is
// compiled from source via go/importer's "source" compiler, so no
// export data, build cache, or x/tools machinery is needed.
type Loader struct {
	ModuleRoot string
	ModulePath string

	fset    *token.FileSet
	std     types.Importer
	pkgs    map[string]*Package // by import path, fully checked
	loading map[string]bool     // cycle detection
}

// NewLoader locates the enclosing module (walking up from dir to find
// go.mod) and returns a loader rooted there.
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
			return nil, fmt.Errorf("analysis: no go.mod found above %s", abs)
		}
		root = parent
	}
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		ModuleRoot: root,
		ModulePath: modPath,
		fset:       fset,
		std:        importer.ForCompiler(fset, "source", nil),
		pkgs:       map[string]*Package{},
		loading:    map[string]bool{},
	}, nil
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			p := strings.TrimSpace(rest)
			p = strings.Trim(p, `"`)
			if p != "" {
				return p, nil
			}
		}
	}
	return "", fmt.Errorf("analysis: no module directive in %s", gomod)
}

// Load resolves the patterns (directory paths, optionally ending in
// /..., in the go tool's style) and returns the matched packages sorted
// by import path. Directories named testdata, and directories below the
// walk root that hold their own go.mod (a nested module, which the go
// tool's ./... skips too), are skipped by /... expansion; testdata
// packages may be named explicitly, which is how the fixture packages
// are analyzed.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	var dirs []string
	seen := map[string]bool{}
	add := func(dir string) {
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, pat := range patterns {
		if rest, ok := strings.CutSuffix(pat, "..."); ok {
			base := filepath.Clean(strings.TrimSuffix(rest, string(filepath.Separator)))
			if base == "" || base == "." {
				base = "."
			}
			absBase, err := filepath.Abs(base)
			if err != nil {
				return nil, err
			}
			err = filepath.WalkDir(absBase, func(path string, d os.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if !d.IsDir() {
					return nil
				}
				name := d.Name()
				if path != absBase && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata" || isFile(filepath.Join(path, "go.mod"))) {
					return filepath.SkipDir
				}
				if hasGoFiles(path) {
					add(path)
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
			continue
		}
		abs, err := filepath.Abs(pat)
		if err != nil {
			return nil, err
		}
		if !hasGoFiles(abs) {
			return nil, fmt.Errorf("analysis: no Go files in %s", pat)
		}
		add(abs)
	}

	var out []*Package
	for _, dir := range dirs {
		pkg, err := l.loadDir(dir)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ImportPath < out[j].ImportPath })
	return out, nil
}

// isFile reports whether path names an existing regular file.
func isFile(path string) bool {
	fi, err := os.Stat(path)
	return err == nil && fi.Mode().IsRegular()
}

// hasGoFiles reports whether dir contains at least one non-test Go file.
func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
			return true
		}
	}
	return false
}

// importPathFor maps an absolute directory inside the module to its
// import path.
func (l *Loader) importPathFor(dir string) (string, error) {
	rel, err := filepath.Rel(l.ModuleRoot, dir)
	if err != nil {
		return "", err
	}
	if rel == "." {
		return l.ModulePath, nil
	}
	if strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("analysis: %s is outside module %s", dir, l.ModuleRoot)
	}
	return l.ModulePath + "/" + filepath.ToSlash(rel), nil
}

// dirFor maps a module-local import path back to its directory.
func (l *Loader) dirFor(importPath string) string {
	if importPath == l.ModulePath {
		return l.ModuleRoot
	}
	rel := strings.TrimPrefix(importPath, l.ModulePath+"/")
	return filepath.Join(l.ModuleRoot, filepath.FromSlash(rel))
}

// loadDir parses and type-checks the package in dir (non-test files
// only), loading module-local imports recursively first.
func (l *Loader) loadDir(dir string) (*Package, error) {
	importPath, err := l.importPathFor(dir)
	if err != nil {
		return nil, err
	}
	return l.loadPath(importPath)
}

func (l *Loader) loadPath(importPath string) (*Package, error) {
	if pkg, ok := l.pkgs[importPath]; ok {
		return pkg, nil
	}
	if l.loading[importPath] {
		return nil, fmt.Errorf("analysis: import cycle through %s", importPath)
	}
	l.loading[importPath] = true
	defer delete(l.loading, importPath)

	dir := l.dirFor(importPath)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}

	// Load module-local dependencies first so the type checker finds
	// them fully checked in l.pkgs.
	for _, f := range files {
		for _, imp := range f.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			if path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/") {
				if _, err := l.loadPath(path); err != nil {
					return nil, err
				}
			}
		}
	}

	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: (*loaderImporter)(l)}
	tpkg, err := conf.Check(importPath, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", importPath, err)
	}
	pkg := &Package{
		ImportPath: importPath,
		Dir:        dir,
		Module:     l.ModulePath,
		Fset:       l.fset,
		Files:      files,
		Types:      tpkg,
		Info:       info,
	}
	l.pkgs[importPath] = pkg
	return pkg, nil
}

// loaderImporter adapts the loader to types.Importer: module-local
// packages come from the loader, everything else from the stdlib source
// importer.
type loaderImporter Loader

func (li *loaderImporter) Import(path string) (*types.Package, error) {
	l := (*Loader)(li)
	if path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/") {
		pkg, err := l.loadPath(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}
