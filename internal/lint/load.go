package lint

import (
	"bytes"
	"encoding/json"
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
	"strings"
)

// Package is one fully parsed and type-checked module package, ready for
// analysis. Only non-test files are loaded: the invariants guard shipping
// code, and test files are free to use wall clocks and raw randomness.
type Package struct {
	ImportPath string
	Dir        string
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
}

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	Standard   bool
	Incomplete bool
}

func goList(dir string, args ...string) ([]listPkg, error) {
	cmd := exec.Command("go", append([]string{"list"}, args...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("lint: go list %s: %w\n%s", strings.Join(args, " "), err, stderr.String())
	}
	var pkgs []listPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("lint: go list output: %w", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// exportLookup builds a types importer over the compiler export data `go
// list -export` leaves in the build cache. This keeps the loader
// stdlib-only: dependencies (including sibling module packages) are
// imported from export data, and only the packages under analysis are
// type-checked from source.
func exportLookup(exports map[string]string) func(string) (io.ReadCloser, error) {
	return func(path string) (io.ReadCloser, error) {
		e, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("lint: no export data for %q", path)
		}
		return os.Open(e)
	}
}

func newInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}

// LoadModule loads every module package matching patterns (e.g. "./...")
// rooted at root, parses its non-test files with comments, and
// type-checks them. The `go` tool resolves patterns, applies build
// constraints, skips testdata, and provides export data for every
// dependency, so a single child process replaces a bespoke build-system
// reimplementation.
func LoadModule(root string, patterns []string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	targets, err := goList(root, append([]string{"-json=ImportPath"}, patterns...)...)
	if err != nil {
		return nil, err
	}
	universe, err := goList(root, append([]string{"-export", "-deps",
		"-json=ImportPath,Dir,Export,GoFiles,Standard,Incomplete"}, patterns...)...)
	if err != nil {
		return nil, err
	}
	exports := make(map[string]string, len(universe))
	byPath := make(map[string]listPkg, len(universe))
	for _, p := range universe {
		byPath[p.ImportPath] = p
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}

	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", exportLookup(exports))
	var out []*Package
	for _, t := range targets {
		p, ok := byPath[t.ImportPath]
		if !ok || p.Standard {
			continue
		}
		if p.Incomplete {
			return nil, fmt.Errorf("lint: package %s does not compile; fix the build before linting", p.ImportPath)
		}
		pkg, err := checkFromSource(fset, imp, p.ImportPath, p.Dir, p.GoFiles)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	return out, nil
}

// loadNestedModules loads every module nested under root (a directory
// below it with its own go.mod — today bench/), skipping what `./...`
// skips: testdata and directories named with a leading "." or "_". Their
// packages are liveness roots for deadexport, never analysed: `./...` at
// the root stops at a nested go.mod, so nothing else would see them.
func loadNestedModules(root string) ([]*Package, error) {
	var out []*Package
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() || path == root {
			return err
		}
		if name := d.Name(); name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			return filepath.SkipDir
		}
		if _, err := os.Stat(filepath.Join(path, "go.mod")); err != nil {
			return nil
		}
		pkgs, err := LoadModule(path, nil)
		out = append(out, pkgs...)
		return err
	})
	return out, err
}

// checkFromSource parses and type-checks one package directory.
func checkFromSource(fset *token.FileSet, imp types.Importer, importPath, dir string, goFiles []string) (*Package, error) {
	var files []*ast.File
	for _, gf := range goFiles {
		f, err := parser.ParseFile(fset, filepath.Join(dir, gf), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		files = append(files, f)
	}
	info := newInfo()
	conf := types.Config{Importer: imp, FakeImportC: true}
	tpkg, err := conf.Check(importPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-check %s: %w", importPath, err)
	}
	return &Package{
		ImportPath: importPath,
		Dir:        dir,
		Fset:       fset,
		Files:      files,
		Types:      tpkg,
		Info:       info,
	}, nil
}

// moduleRelative rewrites absolute positions to module-root-relative
// paths so diagnostics are stable across checkouts.
func moduleRelative(root string) func(token.Position) string {
	abs, err := filepath.Abs(root)
	if err != nil {
		abs = root
	}
	return func(pos token.Position) string {
		if rel, err := filepath.Rel(abs, pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
			return filepath.ToSlash(rel)
		}
		return pos.Filename
	}
}
