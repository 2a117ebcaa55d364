package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked (non-test) package.
type Package struct {
	// PkgPath is the import path (module path + relative directory).
	PkgPath string
	// Dir is the absolute directory.
	Dir  string
	Fset *token.FileSet
	// Files are the parsed non-test files, sorted by file name.
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	// TypeErrors collects soft type-check errors. Checks still run on the
	// partial Info, but grlint reports them: an unresolved identifier can
	// hide a violation from a type-driven check.
	TypeErrors []error

	// allows maps file → line → check IDs suppressed on that line, built by
	// Run from the //grlint:allow directives (see directive.go).
	allows map[string]map[int]map[string]bool
}

func (p *Package) allowedAt(file string, line int, id string) bool {
	return p.allows[file][line][id]
}

// Loader loads packages from one module using only the standard library.
// One Loader shares a FileSet and a source importer across Load calls, so
// dependencies (stdlib included) are type-checked at most once.
type Loader struct {
	// Root is the module root directory (contains go.mod).
	Root string
	// ModulePath is the module path declared in go.mod.
	ModulePath string

	fset *token.FileSet
	imp  types.Importer
}

// NewLoader creates a Loader for the module rooted at or above dir.
func NewLoader(dir string) (*Loader, error) {
	root, modPath, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		Root:       root,
		ModulePath: modPath,
		fset:       fset,
		imp:        importer.ForCompiler(fset, "source", nil),
	}, nil
}

// findModule walks up from dir to the nearest go.mod and returns its
// directory and module path.
func findModule(dir string) (root, modPath string, err error) {
	dir, err = filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		data, rerr := os.ReadFile(filepath.Join(dir, "go.mod"))
		if rerr == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return dir, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("lint: %s/go.mod has no module directive", dir)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("lint: no go.mod found at or above %s", dir)
		}
		dir = parent
	}
}

// Load resolves the given patterns ("./...", "./internal/ncc",
// "./internal/...") against the module root and returns the type-checked
// packages in deterministic import-path order. Test files, and files the
// default build context's constraints exclude, are left out;
// directories named testdata or vendor, and hidden or underscore
// directories, are skipped by "..." expansion but can still be named
// explicitly (the golden tests load testdata packages that way).
func (l *Loader) Load(patterns []string) ([]*Package, error) {
	dirSet := map[string]bool{}
	for _, pat := range patterns {
		dirs, err := l.expand(pat)
		if err != nil {
			return nil, err
		}
		for _, d := range dirs {
			dirSet[d] = true
		}
	}
	dirs := make([]string, 0, len(dirSet))
	for d := range dirSet {
		dirs = append(dirs, d)
	}
	sort.Strings(dirs)

	pkgs := make([]*Package, 0, len(dirs))
	for _, dir := range dirs {
		p, err := l.loadDir(dir)
		if err != nil {
			return nil, err
		}
		if p != nil {
			pkgs = append(pkgs, p)
		}
	}
	return pkgs, nil
}

func (l *Loader) expand(pattern string) ([]string, error) {
	pat := strings.TrimPrefix(pattern, "./")
	if pat == "" || pat == "." {
		return []string{l.Root}, nil
	}
	recursive := false
	if pat == "..." {
		recursive, pat = true, ""
	} else if rest, ok := strings.CutSuffix(pat, "/..."); ok {
		recursive, pat = true, rest
	}
	base := filepath.Join(l.Root, filepath.FromSlash(pat))
	if !recursive {
		if !hasGoFiles(base) {
			return nil, fmt.Errorf("lint: no Go files in %s", base)
		}
		return []string{base}, nil
	}
	var dirs []string
	err := filepath.WalkDir(base, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != base && (name == "testdata" || name == "vendor" ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if hasGoFiles(path) {
			dirs = append(dirs, path)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return dirs, nil
}

func hasGoFiles(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		if name := e.Name(); !e.IsDir() && strings.HasSuffix(name, ".go") &&
			!strings.HasSuffix(name, "_test.go") {
			return true
		}
	}
	return false
}

func (l *Loader) loadDir(dir string) (*Package, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		// A file the build excludes may redeclare names of one it includes.
		if match, err := build.Default.MatchFile(dir, name); err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		} else if !match {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, nil
	}

	rel, err := filepath.Rel(l.Root, dir)
	if err != nil {
		return nil, err
	}
	pkgPath := l.ModulePath
	if rel != "." {
		pkgPath = l.ModulePath + "/" + filepath.ToSlash(rel)
	}

	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	var soft []error
	conf := types.Config{
		Importer: l.imp,
		Error:    func(err error) { soft = append(soft, err) },
	}
	tpkg, _ := conf.Check(pkgPath, l.fset, files, info)

	return &Package{
		PkgPath:    pkgPath,
		Dir:        dir,
		Fset:       l.fset,
		Files:      files,
		Types:      tpkg,
		Info:       info,
		TypeErrors: soft,
	}, nil
}
