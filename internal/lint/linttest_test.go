package lint

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// The golden corpora under testdata/ are the analyzer specification by
// example: each directory is one synthetic package, loaded by loadDir and
// analysed as its own module, and every expected finding is a
// `// want "regexp"` comment on the line it is expected at. A produced
// diagnostic with no matching want, or a want with no matching
// diagnostic, fails the test — so corpora pin both the positives and the
// negatives of every analyzer.

// corpusConfig mirrors DefaultConfig's shape onto a synthetic corpus
// package: the corpus itself is the deterministic/fsync scope, and the
// lock-order table points at types declared inside it.
func corpusConfig(importPath string) Config {
	return Config{
		ModulePath:     "corpus",
		SimPackage:     "corpus/sim",
		Deterministic:  []string{importPath},
		WallClockFiles: []string{"runner.go"},
		LockOrder: []LockClass{
			{Type: importPath + ".Server", Field: "mu", Rank: 1},
			{Type: importPath + ".Injector", Field: "mu", Rank: 2, Methods: true},
			{Type: importPath + ".Pod", Field: "scope", Rank: 3},
			{Type: importPath + ".Pod", Field: "keys", Rank: 4},
			{Type: importPath + ".Journal", Field: "Journal", Rank: 5, Methods: true},
			{Type: importPath + ".Manager", Field: "mu", Rank: 6, Methods: true},
		},
		FsyncPackages: []string{importPath},
		// Only its own corpus: every other corpus exports freely.
		DeadExportScope: "corpus/deadexport",
	}
}

func TestCorpora(t *testing.T) {
	entries, err := os.ReadDir("testdata")
	if err != nil {
		t.Fatal(err)
	}
	ran := 0
	for _, e := range entries {
		if !e.IsDir() || strings.HasPrefix(e.Name(), "_") {
			continue
		}
		ran++
		name := e.Name()
		t.Run(name, func(t *testing.T) {
			runCorpus(t, name)
		})
	}
	if ran == 0 {
		t.Fatal("no corpora under testdata/")
	}
}

func runCorpus(t *testing.T, name string) {
	dir := filepath.Join("testdata", name)
	importPath := "corpus/" + name
	cfg := corpusConfig(importPath)
	pkg, err := loadDir(dir, importPath, ".")
	if err != nil {
		t.Fatal(err)
	}
	diags := runPackage(&cfg, pkg, Analyzers(), nil, NewRefIndex([]*Package{pkg}))

	wants := parseWants(t, dir)
	used := make([]bool, 0)
	type flatWant struct {
		key wantKey
		re  *regexp.Regexp
	}
	var flat []flatWant
	for k, res := range wants {
		for _, re := range res {
			flat = append(flat, flatWant{k, re})
			used = append(used, false)
		}
	}
	for _, d := range diags {
		key := wantKey{filepath.Base(d.File), d.Line}
		rendered := "[" + d.Analyzer + "] " + d.Message
		matched := false
		for i, w := range flat {
			if !used[i] && w.key == key && w.re.MatchString(rendered) {
				used[i] = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s:%d: %s", d.File, d.Line, rendered)
		}
	}
	for i, w := range flat {
		if !used[i] {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.key.file, w.key.line, w.re)
		}
	}
}

type wantKey struct {
	file string // base name
	line int
}

// wantText extracts the payload of a `// want ...` comment; quoted
// (backquote or double-quote) regexes follow the marker.
var wantText = regexp.MustCompile("//\\s*want\\s+(.+)$")
var wantQuoted = regexp.MustCompile("`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\"")

func parseWants(t *testing.T, dir string) map[wantKey][]*regexp.Regexp {
	out := make(map[wantKey][]*regexp.Regexp)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := os.Open(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			m := wantText.FindStringSubmatch(sc.Text())
			if m == nil {
				continue
			}
			quoted := wantQuoted.FindAllString(m[1], -1)
			if len(quoted) == 0 {
				t.Errorf("%s/%s:%d: want comment carries no quoted regexp", dir, e.Name(), line)
				continue
			}
			for _, q := range quoted {
				var pat string
				if q[0] == '`' {
					pat = q[1 : len(q)-1]
				} else {
					pat, err = strconv.Unquote(q)
					if err != nil {
						t.Fatalf("%s/%s:%d: %v", dir, e.Name(), line, err)
					}
				}
				re, err := regexp.Compile(pat)
				if err != nil {
					t.Fatalf("%s/%s:%d: bad want regexp: %v", dir, e.Name(), line, err)
				}
				out[wantKey{e.Name(), line}] = append(out[wantKey{e.Name(), line}], re)
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	return out
}

// loadDir loads a single directory of Go files as the package
// asImportPath, resolving its imports (stdlib or otherwise) through `go
// list -export` run from resolveDir. The analyzer testdata corpora live
// outside the module build graph, so this is how linttest feeds them to
// the engine.
func loadDir(dir, asImportPath, resolveDir string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("lint: %w", err)
	}
	fset := token.NewFileSet()
	var files []*ast.File
	var names []string
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		names = append(names, e.Name())
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	imports := make(map[string]bool)
	for _, f := range files {
		for _, spec := range f.Imports {
			path := strings.Trim(spec.Path.Value, `"`)
			if path != "unsafe" {
				imports[path] = true
			}
		}
	}
	exports := make(map[string]string)
	if len(imports) > 0 {
		args := []string{"-export", "-deps", "-json=ImportPath,Export,Incomplete"}
		for p := range imports {
			args = append(args, p)
		}
		deps, err := goList(resolveDir, args...)
		if err != nil {
			return nil, err
		}
		for _, p := range deps {
			if p.Export != "" {
				exports[p.ImportPath] = p.Export
			}
		}
	}
	imp := importer.ForCompiler(fset, "gc", exportLookup(exports))
	info := newInfo()
	conf := types.Config{Importer: imp, FakeImportC: true}
	tpkg, err := conf.Check(asImportPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-check %s (%s): %w", dir, strings.Join(names, ","), err)
	}
	return &Package{
		ImportPath: asImportPath,
		Dir:        dir,
		Fset:       fset,
		Files:      files,
		Types:      tpkg,
		Info:       info,
	}, nil
}
