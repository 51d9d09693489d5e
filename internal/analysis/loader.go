package analysis

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
)

// Package is one loaded, type-checked package: the unit every analyzer
// operates on.
type Package struct {
	Path  string // import path ("fixture/..." for test fixtures)
	Name  string // package name from the source files
	Fset  *token.FileSet
	Files []*ast.File // non-test files, build-constraint filtered, sorted by filename
	Types *types.Package
	Info  *types.Info
}

// Loader loads and type-checks packages of one module. Module-internal
// imports are resolved by recursively loading the imported package from
// source; stdlib imports are resolved from the toolchain's compiled
// export data (`go list -export std`), falling back to type-checking
// the standard library from source when the go command is unavailable.
type Loader struct {
	Fset    *token.FileSet
	root    string // absolute module root (directory of go.mod)
	modPath string // module path from go.mod

	pkgs    map[string]*Package
	loading map[string]bool // cycle guard
	stdlib  types.Importer
}

// NewLoader prepares a loader for the module rooted at root.
func NewLoader(root string) (*Loader, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	modPath, err := moduleName(abs)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		Fset:    fset,
		root:    abs,
		modPath: modPath,
		pkgs:    make(map[string]*Package),
		loading: make(map[string]bool),
		stdlib:  newStdImporter(fset),
	}, nil
}

// moduleName extracts the module path from root/go.mod.
func moduleName(root string) (string, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", fmt.Errorf("analysis: not a module root: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.TrimSpace(strings.TrimSuffix(rest, "// indirect")), nil
		}
	}
	return "", fmt.Errorf("analysis: no module directive in %s/go.mod", root)
}

// LoadModule walks the module tree and loads every package that
// contains non-test Go files, in import-path order. Directories named
// testdata, hidden directories and _-prefixed directories are skipped,
// mirroring the go command.
func (l *Loader) LoadModule() ([]*Package, error) {
	var dirs []string
	err := filepath.WalkDir(l.root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != l.root && (name == "testdata" || name == "results" ||
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
	var pkgs []*Package
	for _, dir := range dirs {
		rel, err := filepath.Rel(l.root, dir)
		if err != nil {
			return nil, err
		}
		ip := l.modPath
		if rel != "." {
			ip = l.modPath + "/" + filepath.ToSlash(rel)
		}
		pkg, err := l.LoadDir(dir, ip)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, nil
}

// hasGoFiles reports whether dir contains at least one non-test .go
// file (before build-constraint filtering).
func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			return true
		}
	}
	return false
}

// LoadDir parses and type-checks the package in dir under the given
// import path. Results are cached by import path; test files are
// excluded, and files are filtered by build constraints for the default
// build context (so e.g. a `//go:build race` file does not clash with
// its `!race` twin).
func (l *Loader) LoadDir(dir, importPath string) (*Package, error) {
	if pkg := l.pkgs[importPath]; pkg != nil {
		return pkg, nil
	}
	if l.loading[importPath] {
		return nil, fmt.Errorf("analysis: import cycle through %s", importPath)
	}
	l.loading[importPath] = true
	defer delete(l.loading, importPath)

	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	entries, err := os.ReadDir(abs)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(abs, name); err != nil || !ok {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(abs, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no buildable Go files in %s", dir)
	}

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	cfg := &types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
		return l.importPkg(path)
	})}
	tpkg, err := cfg.Check(importPath, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", importPath, err)
	}
	pkg := &Package{
		Path:  importPath,
		Name:  tpkg.Name(),
		Fset:  l.Fset,
		Files: files,
		Types: tpkg,
		Info:  info,
	}
	l.pkgs[importPath] = pkg
	return pkg, nil
}

// importPkg resolves one import: a loaded package comes from the
// cache, other module-internal paths load from source, everything else
// goes to the stdlib importer.
func (l *Loader) importPkg(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if pkg := l.pkgs[path]; pkg != nil {
		return pkg.Types, nil // already loaded, e.g. a fixture package
	}
	if path == l.modPath || strings.HasPrefix(path, l.modPath+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.modPath), "/")
		dir := l.root
		if rel != "" {
			dir = filepath.Join(l.root, filepath.FromSlash(rel))
		}
		pkg, err := l.LoadDir(dir, path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.stdlib.Import(path)
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// newStdImporter builds the standard-library importer. The fast path
// feeds the compiled export data of every std package to the gc
// importer; if no export data can be found it falls back to the source
// importer, which type-checks the standard library from GOROOT
// sources.
func newStdImporter(fset *token.FileSet) types.Importer {
	exports := stdExportMap()
	if len(exports) == 0 {
		return importer.ForCompiler(fset, "source", nil)
	}
	lookup := func(path string) (io.ReadCloser, error) {
		file := exports[path]
		if file == "" {
			return nil, fmt.Errorf("analysis: no export data for %q", path)
		}
		return os.Open(file)
	}
	return importer.ForCompiler(fset, "gc", lookup)
}

// The import-path -> export-file map for the standard library is
// immutable for a given toolchain, but discovering it means running
// `go list -export -e std` — around 0.3s, which used to dominate
// insightlint's wall time. It is now resolved once per process and
// memoised on disk across processes, keyed by toolchain version and
// platform; every cached file path is stat-validated so a pruned build
// cache or toolchain upgrade transparently falls back to a fresh scan.
var (
	stdExportsOnce sync.Once
	stdExports     map[string]string
)

// stdExportMap returns the stdlib export-data map, or nil when the go
// command is unavailable (callers then use the source importer).
func stdExportMap() map[string]string {
	stdExportsOnce.Do(func() {
		path := stdExportsCachePath()
		if m := readStdExportsCache(path); m != nil {
			stdExports = m
			return
		}
		out, err := exec.Command("go", "list", "-export", "-e", "-f", "{{.ImportPath}}={{.Export}}", "std").Output()
		if err != nil {
			return
		}
		m := parseStdExports(out)
		if len(m) == 0 {
			return
		}
		writeStdExportsCache(path, out)
		stdExports = m
	})
	return stdExports
}

// stdExportsCachePath names the per-toolchain on-disk cache file.
func stdExportsCachePath() string {
	name := fmt.Sprintf("insightlint-std-exports-%s-%s-%s.txt",
		runtime.Version(), runtime.GOOS, runtime.GOARCH)
	return filepath.Join(os.TempDir(), name)
}

// parseStdExports decodes `go list -export` output ("path=exportfile"
// per line); packages without export data (empty right side) are
// dropped.
func parseStdExports(out []byte) map[string]string {
	exports := make(map[string]string)
	for _, line := range strings.Split(string(bytes.TrimSpace(out)), "\n") {
		ip, file, ok := strings.Cut(line, "=")
		if ok && file != "" {
			exports[ip] = file
		}
	}
	return exports
}

// readStdExportsCache loads and validates a cached export map. Any
// missing export file invalidates the whole cache: the build cache was
// pruned and `go list -export` must rebuild it.
func readStdExportsCache(path string) map[string]string {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil
	}
	m := parseStdExports(data)
	if len(m) == 0 {
		return nil
	}
	for _, file := range m {
		if _, err := os.Stat(file); err != nil {
			return nil
		}
	}
	return m
}

// writeStdExportsCache persists the raw `go list` output atomically
// (temp file + rename) so concurrent lint runs never observe a torn
// cache. Failures are ignored: the cache is an optimisation only.
func writeStdExportsCache(path string, out []byte) {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return
	}
	if _, err := tmp.Write(out); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
	}
}

// FindModuleRoot walks upward from dir to the nearest directory
// containing go.mod.
func FindModuleRoot(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(abs, "go.mod")); err == nil {
			return abs, nil
		}
		parent := filepath.Dir(abs)
		if parent == abs {
			return "", fmt.Errorf("analysis: no go.mod found above %s", dir)
		}
		abs = parent
	}
}
