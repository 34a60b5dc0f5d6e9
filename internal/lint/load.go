package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// Package is one loaded, parsed, and (best-effort) type-checked
// package, ready for analysis.
type Package struct {
	// Path is the import path ("imc/internal/ric").
	Path string
	// Dir is the package directory on disk.
	Dir string
	// Fset positions every file in Files.
	Fset *token.FileSet
	// Files are the parsed non-test sources, with comments.
	Files []*ast.File
	// Types is the type-checked package (possibly incomplete).
	Types *types.Package
	// Info carries expression types; entries may be missing where
	// type checking could not recover. Analyzers must treat absent or
	// invalid types as "unknown", never as proof.
	Info *types.Info
	// TypeErrors collects the (tolerated) type-check errors.
	TypeErrors []error
	// Prog back-links the whole-program view when the package was loaded
	// as part of one (NewProgram). Nil for bare fixture loads, in which
	// case the interprocedural analyzers degrade to intra-procedural
	// behavior or skip.
	Prog *Program

	// build is the compiler run whose diagnostics the hotpath analyzer
	// reads for this package (see hotpath.go); nil until one is started.
	build *compileRun
}

// Loader discovers, parses, and type-checks the module's packages. Type
// checking is best-effort: the loader resolves module-internal imports
// and standard-library imports from source and tolerates anything it
// cannot resolve, because the analyzers only need types locally (e.g.
// "is this operand a float64"), not a fully closed program.
type Loader struct {
	// ModuleDir is the directory containing go.mod.
	ModuleDir string
	// ModulePath is the module path declared in go.mod.
	ModulePath string

	fset     *token.FileSet
	buildCtx build.Context
	imported map[string]*types.Package
	loading  map[string]bool
	// hot is the compiler run Load starts for the hot packages of a
	// wildcard load, so it overlaps parsing and type checking.
	hot *compileRun
}

// NewLoader creates a loader rooted at the module containing dir
// (searching upward for go.mod).
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	modDir := abs
	for {
		if _, err := os.Stat(filepath.Join(modDir, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(modDir)
		if parent == modDir {
			return nil, fmt.Errorf("lint: no go.mod found above %s", abs)
		}
		modDir = parent
	}
	data, err := os.ReadFile(filepath.Join(modDir, "go.mod"))
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
		return nil, fmt.Errorf("lint: no module line in %s/go.mod", modDir)
	}
	ctx := build.Default
	// Pure-Go variants of std packages (net, os/user, ...) type-check
	// from source without a C toolchain; cgo variants do not.
	ctx.CgoEnabled = false
	return &Loader{
		ModuleDir:  modDir,
		ModulePath: modPath,
		fset:       token.NewFileSet(),
		buildCtx:   ctx,
		imported:   make(map[string]*types.Package),
		loading:    make(map[string]bool),
	}, nil
}

// Load resolves patterns into packages. Supported patterns: "./..."
// (every package under the module, skipping testdata, vendor, and
// hidden directories) and directory paths relative to the module root
// (e.g. "./internal/ric"). Test files (_test.go) are never loaded: the
// suite lints production code.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	var dirs []string
	wildcard := false
	seen := make(map[string]bool)
	addDir := func(dir string) {
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, pat := range patterns {
		switch {
		case pat == "./..." || pat == "...":
			wildcard = true
			if err := l.walkPackageDirs(l.ModuleDir, addDir); err != nil {
				return nil, err
			}
		case strings.HasSuffix(pat, "/..."):
			wildcard = true
			root := filepath.Join(l.ModuleDir, strings.TrimSuffix(pat, "/..."))
			if err := l.walkPackageDirs(root, addDir); err != nil {
				return nil, err
			}
		default:
			dir := pat
			if !filepath.IsAbs(dir) {
				dir = filepath.Join(l.ModuleDir, pat)
			}
			addDir(filepath.Clean(dir))
		}
	}
	sort.Strings(dirs)
	if wildcard {
		if hot := hotPackageDirs(dirs); len(hot) > 0 {
			l.hot = startCompile(l.ModuleDir, hot)
		}
	}
	pkgs := make([]*Package, 0, len(dirs))
	for _, dir := range dirs {
		pkg, err := l.loadDir(dir)
		if err != nil {
			return nil, fmt.Errorf("lint: load %s: %w", dir, err)
		}
		if pkg != nil {
			pkgs = append(pkgs, pkg)
		}
	}
	return pkgs, nil
}

// walkPackageDirs calls add for every directory under root holding at
// least one non-test .go file.
func (l *Loader) walkPackageDirs(root string, add func(string)) error {
	return filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
			name == "testdata" || name == "vendor") {
			return filepath.SkipDir
		}
		entries, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		for _, e := range entries {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
				add(path)
				break
			}
		}
		return nil
	})
}

// importPathFor maps a directory inside the module to its import path.
func (l *Loader) importPathFor(dir string) (string, error) {
	rel, err := filepath.Rel(l.ModuleDir, dir)
	if err != nil {
		return "", err
	}
	if rel == "." {
		return l.ModulePath, nil
	}
	if strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("lint: %s is outside module %s", dir, l.ModuleDir)
	}
	return l.ModulePath + "/" + filepath.ToSlash(rel), nil
}

// loadDir parses and type-checks the package in dir. Returns nil when
// the directory holds no buildable non-test Go files.
func (l *Loader) loadDir(dir string) (*Package, error) {
	files, err := l.parseDir(dir, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, nil
	}
	path, err := l.importPathFor(dir)
	if err != nil {
		return nil, err
	}
	pkg := &Package{
		Path:  path,
		Dir:   dir,
		Fset:  l.fset,
		Files: files,
		build: l.hot,
		Info: &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
		},
	}
	conf := types.Config{
		Importer:    l,
		FakeImportC: true,
		Error:       func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	// Check never hard-fails here: with an Error handler installed it
	// returns a partial package, which is all the analyzers need.
	pkg.Types, _ = conf.Check(path, l.fset, files, pkg.Info)
	return pkg, nil
}

// parseDir parses the build-constrained non-test Go files of dir.
func (l *Loader) parseDir(dir string, mode parser.Mode) ([]*ast.File, error) {
	bp, err := l.buildCtx.ImportDir(dir, 0)
	if err != nil {
		if _, ok := err.(*build.NoGoError); ok {
			return nil, nil
		}
		return nil, err
	}
	files := make([]*ast.File, 0, len(bp.GoFiles))
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, mode)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// Import implements types.Importer by recursively type-checking the
// imported package from source: module-internal paths resolve under
// ModuleDir, everything else under GOROOT/src (with the std vendor
// directory as fallback). Failures return an error, which the tolerant
// type-checker surfaces as a per-file error rather than aborting.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if pkg, ok := l.imported[path]; ok {
		if pkg == nil {
			return nil, fmt.Errorf("lint: import failed for %q", path)
		}
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("lint: import cycle through %q", path)
	}
	dir, err := l.resolveDir(path)
	if err != nil {
		l.imported[path] = nil
		return nil, err
	}
	files, err := l.parseDir(dir, 0)
	if err != nil || len(files) == 0 {
		l.imported[path] = nil
		if err == nil {
			err = fmt.Errorf("lint: no Go files in %s", dir)
		}
		return nil, err
	}
	l.loading[path] = true
	defer delete(l.loading, path)
	conf := types.Config{
		Importer:    l,
		FakeImportC: true,
		Error:       func(error) {}, // tolerate; dependents see what resolved
	}
	pkg, _ := conf.Check(path, l.fset, files, nil)
	if pkg == nil {
		l.imported[path] = nil
		return nil, fmt.Errorf("lint: type-check failed for %q", path)
	}
	// Mark complete even when partially checked so go/types accepts it.
	pkg.MarkComplete()
	l.imported[path] = pkg
	return pkg, nil
}

// resolveDir maps an import path to a source directory.
func (l *Loader) resolveDir(path string) (string, error) {
	if path == l.ModulePath {
		return l.ModuleDir, nil
	}
	if rest, ok := strings.CutPrefix(path, l.ModulePath+"/"); ok {
		return filepath.Join(l.ModuleDir, filepath.FromSlash(rest)), nil
	}
	goroot := runtime.GOROOT()
	for _, dir := range []string{
		filepath.Join(goroot, "src", filepath.FromSlash(path)),
		filepath.Join(goroot, "src", "vendor", filepath.FromSlash(path)),
	} {
		if st, err := os.Stat(dir); err == nil && st.IsDir() {
			return dir, nil
		}
	}
	return "", fmt.Errorf("lint: cannot resolve import %q (module-external, not in GOROOT)", path)
}
