package analysis

import (
	"fmt"
	"go/ast"
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

// Package is one loaded, type-checked, non-test package of the module.
type Package struct {
	// Path is the package's import path (module path + directory).
	Path string
	// Dir is the absolute directory holding the sources.
	Dir string
	// Fset is the file set all AST positions resolve against.
	Fset *token.FileSet
	// Files are the parsed non-test sources, sorted by file name.
	Files []*ast.File
	// Types and Info carry the type-checker's results.
	Types *types.Package
	Info  *types.Info
}

// Loader loads and type-checks module packages without any dependency
// outside the standard library. Module-internal imports are resolved by
// loading the imported directory recursively; everything else is
// delegated to the compiler's export data.
type Loader struct {
	root      string // module root (absolute)
	module    string // module path from go.mod
	fset      *token.FileSet
	std       types.Importer
	pkgs      map[string]*Package    // memoized by import path
	busy      map[string]bool        // import-cycle guard
	preparsed map[string][]*ast.File // parse-phase results by directory
}

// NewLoader creates a loader for the module rooted at root. The module
// path is read from root/go.mod.
func NewLoader(root string) (*Loader, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	mod, err := modulePath(filepath.Join(abs, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		root:      abs,
		module:    mod,
		fset:      fset,
		std:       newStdImporter(abs, fset),
		pkgs:      make(map[string]*Package),
		busy:      make(map[string]bool),
		preparsed: make(map[string][]*ast.File),
	}, nil
}

// newStdImporter returns the importer used for standard-library
// packages. importer.Default() shells out to the go command once per
// imported package — dozens of sequential subprocess launches per lint
// run, which dominated load time. Instead, resolve every std export
// file in a single `go list` invocation and serve lookups straight
// from that table. When the go command is unavailable the default
// importer remains the fallback.
func newStdImporter(root string, fset *token.FileSet) types.Importer {
	cmd := exec.Command("go", "list", "-export", "-f", "{{.ImportPath}}={{.Export}}", "std")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return importer.Default()
	}
	exports := make(map[string]string)
	for _, line := range strings.Split(string(out), "\n") {
		if path, file, ok := strings.Cut(line, "="); ok && file != "" {
			exports[path] = file
		}
	}
	lookup := func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("analysis: no export data for %q", path)
		}
		return os.Open(file)
	}
	return importer.ForCompiler(fset, "gc", lookup)
}

// Module returns the module path the loader resolves internal imports
// against.
func (l *Loader) Module() string { return l.module }

// Fset returns the loader's shared file set.
func (l *Loader) Fset() *token.FileSet { return l.fset }

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", fmt.Errorf("analysis: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("analysis: no module directive in %s", gomod)
}

// Load resolves the given package patterns and loads every match. A
// pattern is either a directory relative to the module root ("./x"), a
// recursive pattern ("./..." or "./x/..."), or an import path inside the
// module. Packages are returned sorted by import path.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	dirs := make(map[string]bool)
	for _, pat := range patterns {
		if p, ok := strings.CutPrefix(pat, l.module); ok && (p == "" || p[0] == '/') {
			pat = "./" + strings.TrimPrefix(p, "/")
		}
		rec := false
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			rec = true
			pat = rest
			if pat == "." || pat == "" {
				pat = "."
			}
		}
		base := filepath.Join(l.root, filepath.FromSlash(strings.TrimPrefix(pat, "./")))
		if !rec {
			dirs[base] = true
			continue
		}
		err := filepath.WalkDir(base, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != base && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			if hasGoFiles(path) {
				dirs[path] = true
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("analysis: walking %s: %w", base, err)
		}
	}
	sorted := make([]string, 0, len(dirs))
	for dir := range dirs {
		sorted = append(sorted, dir)
	}
	sort.Strings(sorted)
	if err := l.preparse(sorted); err != nil {
		return nil, err
	}
	var out []*Package
	for _, dir := range sorted {
		pkg, err := l.LoadDir(dir)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out, nil
}

// preparse parses the sources of every directory concurrently across
// GOMAXPROCS workers and keeps the results for load to pick up.
// token.FileSet is safe for concurrent use, so the parse phase — which
// touches every byte of every file — fans out freely; type-checking
// stays sequential because the checker, its Info maps, and this
// loader's memoization are not.
func (l *Loader) preparse(dirs []string) error {
	type job struct {
		dir, path string
	}
	var jobs []job
	for _, dir := range dirs {
		ents, err := os.ReadDir(dir)
		if err != nil {
			return fmt.Errorf("analysis: %w", err)
		}
		for _, e := range ents {
			if !e.IsDir() && isSourceFile(e.Name()) {
				jobs = append(jobs, job{dir: dir, path: filepath.Join(dir, e.Name())})
			}
		}
	}
	parsed := make([]*ast.File, len(jobs))
	errs := make([]error, len(jobs))
	workers := runtime.GOMAXPROCS(0)
	if workers > len(jobs) {
		workers = len(jobs)
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				parsed[i], errs[i] = parser.ParseFile(l.fset, jobs[i].path, nil, parser.ParseComments)
			}
		}()
	}
	for i := range jobs {
		idx <- i
	}
	close(idx)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("analysis: %w", err)
		}
		// jobs preserve ReadDir's sorted order, so per-directory file
		// order matches the sequential path exactly.
		l.preparsed[jobs[i].dir] = append(l.preparsed[jobs[i].dir], parsed[i])
	}
	return nil
}

// hasGoFiles reports whether dir directly contains at least one non-test
// Go source file.
func hasGoFiles(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		if !e.IsDir() && isSourceFile(e.Name()) {
			return true
		}
	}
	return false
}

func isSourceFile(name string) bool {
	return strings.HasSuffix(name, ".go") &&
		!strings.HasSuffix(name, "_test.go") &&
		!strings.HasPrefix(name, ".") && !strings.HasPrefix(name, "_")
}

// LoadDir loads and type-checks the package in one directory. Results
// are memoized, so loading a package twice (directly and as a
// dependency) is free.
func (l *Loader) LoadDir(dir string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	path := l.importPathFor(abs)
	return l.load(path, abs)
}

// importPathFor maps an absolute directory to its import path. The
// module root maps to the bare module path.
func (l *Loader) importPathFor(dir string) string {
	rel, err := filepath.Rel(l.root, dir)
	if err != nil || rel == "." {
		return l.module
	}
	return l.module + "/" + filepath.ToSlash(rel)
}

// Import implements types.Importer, resolving module-internal imports by
// loading them and everything else through the compiler's export data.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.module || strings.HasPrefix(path, l.module+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.module), "/")
		pkg, err := l.load(path, filepath.Join(l.root, filepath.FromSlash(rel)))
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

// load parses and type-checks one directory under the given import path.
func (l *Loader) load(path, dir string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.busy[path] {
		return nil, fmt.Errorf("analysis: import cycle through %s", path)
	}
	l.busy[path] = true
	defer delete(l.busy, path)

	files := l.preparsed[dir]
	if files == nil {
		// Not covered by a preparse pass (LoadDir on a fixture, or an
		// internal import pulled in as a dependency): parse inline.
		ents, err := os.ReadDir(dir)
		if err != nil {
			return nil, fmt.Errorf("analysis: %w", err)
		}
		for _, e := range ents {
			if e.IsDir() || !isSourceFile(e.Name()) {
				continue
			}
			f, err := parser.ParseFile(l.fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
			if err != nil {
				return nil, fmt.Errorf("analysis: %w", err)
			}
			files = append(files, f)
		}
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no Go sources in %s", dir)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", path, err)
	}
	pkg := &Package{Path: path, Dir: dir, Fset: l.fset, Files: files, Types: tpkg, Info: info}
	l.pkgs[path] = pkg
	return pkg, nil
}
