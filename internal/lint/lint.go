// Package lint is the project-invariant analyzer suite behind cmd/lwlint.
//
// The correctness of this codebase rests on contracts the Go compiler
// cannot see: all randomness flows through sim.Substream so internal/par
// fan-outs are bit-identical at any worker count, deterministic packages
// never read wall-clock time or iterate maps into results, the
// Injector→Manager lock order keeps fault injection from deadlocking the
// reconciler, and a handful of hot paths must stay at 0 allocs/op. Each
// contract here is an Analyzer: a pure function from a type-checked
// package to diagnostics. The driver loads the module (see load.go), runs
// the catalog, applies //lwlint:ignore suppressions, and reports
// machine-readable findings. DESIGN.md §15 is the human-readable catalog.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one finding, addressed by resolved source position.
type Diagnostic struct {
	Pos      token.Position `json:"-"`
	File     string         `json:"file"`
	Line     int            `json:"line"`
	Col      int            `json:"col"`
	Analyzer string         `json:"analyzer"`
	Message  string         `json:"message"`
}

// String renders the canonical machine-readable form:
// file:line: [analyzer] message.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", d.File, d.Line, d.Analyzer, d.Message)
}

// Analyzer is one invariant checker. Run inspects a single type-checked
// package through the Pass and reports findings; it must not retain the
// pass or depend on the order packages are analyzed in.
type Analyzer struct {
	// Name is the catalog key: it appears in diagnostics and is the token
	// //lwlint:ignore suppressions name.
	Name string
	// Doc is a one-paragraph statement of the contract enforced.
	Doc string
	Run func(*Pass)
}

// Pass hands an analyzer one fully type-checked package.
type Pass struct {
	Cfg        *Config
	Fset       *token.FileSet
	Files      []*ast.File
	ImportPath string
	Pkg        *types.Package
	Info       *types.Info
	// Refs is the module-wide reference index (see RefIndex); analyzers
	// whose contract spans packages read it instead of retaining passes.
	Refs *RefIndex

	analyzer *Analyzer
	diags    *[]Diagnostic
	relFile  func(token.Position) string
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	file := position.Filename
	if p.relFile != nil {
		file = p.relFile(position)
	}
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      position,
		File:     file,
		Line:     position.Line,
		Col:      position.Column,
		Analyzer: p.analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf resolves the static type of an expression, or nil.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Info.TypeOf(e) }

// PkgNameOf resolves a selector like time.Now to the imported package
// path of its qualifier, or "" when the qualifier is not a package name.
func (p *Pass) PkgNameOf(sel *ast.SelectorExpr) string {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return ""
	}
	if pn, ok := p.Info.Uses[id].(*types.PkgName); ok {
		return pn.Imported().Path()
	}
	return ""
}

// LockClass declares one mutex in the project lock-order table. Ranks
// ascend along the allowed acquisition order: holding rank r, a goroutine
// may only acquire ranks strictly greater than r.
type LockClass struct {
	// Type is the owning named type, as "importpath.TypeName".
	Type string
	// Field is the sync.Mutex / sync.RWMutex field name (or the field
	// holding an array of them). A Methods-marked interface type has no
	// field: Field is then the method that names the class in reports.
	Field string
	// Rank orders acquisition; lower ranks are acquired first.
	Rank int
	// Methods marks classes whose exported methods acquire the lock, so
	// calls into the type from another package — or through it, when it
	// is an interface — count as acquisitions even though the analyzer
	// cannot see the callee body.
	Methods bool
}

// Config carries the project contracts the analyzers enforce. Tests
// substitute synthetic configs; the real one is DefaultConfig.
type Config struct {
	// ModulePath is the module's import-path prefix.
	ModulePath string
	// SimPackage is the only package allowed to own raw RNG sources.
	SimPackage string
	// Deterministic lists import paths whose exported results must be a
	// pure function of explicit seeds (the internal/par replay contract).
	Deterministic []string
	// WallClockFiles lists module-relative files inside deterministic
	// packages that are wall-clock runners by design and exempt from the
	// walltime analyzer.
	WallClockFiles []string
	// LockOrder is the declared mutex acquisition order.
	LockOrder []LockClass
	// FsyncPackages lists import paths where an unchecked Sync/Close
	// error on a durable file is a durability bug, not noise.
	FsyncPackages []string
	// DeadExportScope is the import-path prefix whose packages' exported
	// funcs, methods and types must be referenced by non-test code
	// somewhere in the module or a module nested under it.
	DeadExportScope string
}

// IsDeterministic reports whether the import path is under the
// deterministic contract.
func (c *Config) IsDeterministic(path string) bool {
	for _, p := range c.Deterministic {
		if path == p {
			return true
		}
	}
	return false
}

func (c *Config) inFsyncScope(path string) bool {
	for _, p := range c.FsyncPackages {
		if path == p {
			return true
		}
	}
	return false
}

// DefaultConfig is the lightwave project's contract catalog. Every entry
// names where the contract came from; DESIGN.md §15 carries the prose.
func DefaultConfig() Config {
	return Config{
		ModulePath: "lightwave",
		SimPackage: "lightwave/internal/sim",
		Deterministic: []string{
			"lightwave/internal/dcn",
			"lightwave/internal/sim",
			"lightwave/internal/par",
			"lightwave/internal/avail",
			"lightwave/internal/te",
			"lightwave/internal/sched",
			"lightwave/internal/chaos",
			"lightwave/internal/mlperf",
			// Its reports are the byte-identical cmd/experiments output.
			"lightwave/internal/figures",
		},
		// No WallClockFiles: the one wall-clock runner, the TE epoch
		// ticker, lives in cmd/lwfleetd, outside the deterministic set.
		LockOrder: []LockClass{
			// ctlrpc handlers never nest into the injector or manager
			// while holding Server.mu today; ranking it first declares
			// that any future nesting must keep it outermost.
			{Type: "lightwave/internal/ctlrpc.Server", Field: "mu", Rank: 1},
			// PR 5 contract: injection takes Injector.mu then calls the
			// manager; the manager never calls back into chaos.
			{Type: "lightwave/internal/chaos.Injector", Field: "mu", Rank: 2, Methods: true},
			// PR 13 contract: fleet intake is reserve → journal → apply. A
			// mutation reserves its intent scope (the manager's add-pod
			// lock, or the pod's scope and one shard of its keys), calls
			// the journal holding only that, and takes Manager.mu last.
			// Ranking the Journal interface below Manager.mu makes a
			// journal call under the manager lock — the serialisation that
			// kept group commit at one record per fsync — a finding.
			{Type: "lightwave/internal/fleet.Manager", Field: "addMu", Rank: 3},
			{Type: "lightwave/internal/fleet.pod", Field: "scope", Rank: 4},
			{Type: "lightwave/internal/fleet.pod", Field: "keys", Rank: 5},
			{Type: "lightwave/internal/fleet.Journal", Field: "JournalFleet", Rank: 6, Methods: true},
			{Type: "lightwave/internal/fleet.Manager", Field: "mu", Rank: 7, Methods: true},
			// The DCN fabric's lock is innermost: the injector, the fleet's
			// status reads and a TE stage all reach the switches through
			// it, and the fabric calls nothing out while holding it.
			{Type: "lightwave/internal/dcn.Fabric", Field: "mu", Rank: 8, Methods: true},
		},
		FsyncPackages: []string{
			"lightwave/internal/wal",
			// The daemons' one shutdown path closes the store.
			"lightwave/internal/daemon",
			"lightwave/cmd/lwfd",
			"lightwave/cmd/lwfleetd",
		},
		// Every internal package: its exported surface is what cmd/,
		// examples/ and the bench/ ledger compose, so anything none of
		// them reaches goes.
		DeadExportScope: "lightwave/internal/",
	}
}

// Analyzers returns the full catalog in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		AnalyzerSimrand,
		AnalyzerWalltime,
		AnalyzerMaprange,
		AnalyzerLocknest,
		AnalyzerHotalloc,
		AnalyzerFsyncerr,
		AnalyzerDeadexport,
	}
}

// suppression is one parsed //lwlint:ignore annotation.
type suppression struct {
	file      string // resolved filename (as in token.Position)
	line      int    // the annotated source line
	analyzers []string
	reason    string
	pos       token.Pos
}

const (
	ignorePrefix  = "//lwlint:ignore"
	hotpathMarker = "//lwlint:hotpath"
)

// parseSuppressions scans a file's comments for //lwlint:ignore
// annotations. A trailing annotation suppresses its own line; a
// standalone annotation suppresses the line below it. Malformed
// annotations (no analyzer, no reason, unknown analyzer) are themselves
// diagnostics: a suppression that silently fails to bind is worse than a
// loud finding.
func parseSuppressions(fset *token.FileSet, f *ast.File, known map[string]bool, report func(token.Pos, string)) []suppression {
	var out []suppression
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := c.Text
			if !strings.HasPrefix(text, ignorePrefix) {
				continue
			}
			rest := strings.TrimPrefix(text, ignorePrefix)
			if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
				continue // e.g. //lwlint:ignorexyz — not ours
			}
			fields := strings.Fields(rest)
			if len(fields) == 0 {
				report(c.Pos(), "suppression names no analyzer: //lwlint:ignore <analyzer>[,<analyzer>] <reason>")
				continue
			}
			names := strings.Split(fields[0], ",")
			bad := false
			for _, n := range names {
				if !known[n] {
					report(c.Pos(), fmt.Sprintf("suppression names unknown analyzer %q", n))
					bad = true
				}
			}
			if bad {
				continue
			}
			reason := strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), fields[0]))
			if reason == "" {
				report(c.Pos(), fmt.Sprintf("suppression of %s needs a written reason", fields[0]))
				continue
			}
			out = append(out, suppression{
				file:      fset.Position(c.Pos()).Filename,
				line:      fset.Position(c.Pos()).Line,
				analyzers: names,
				reason:    reason,
				pos:       c.Pos(),
			})
		}
	}
	return out
}

// lineKey addresses the findings one analyzer reports on one line.
type lineKey struct {
	file     string
	line     int
	analyzer string
}

// applySuppressions drops diagnostics covered by an annotation on the
// same line or the line directly above.
func applySuppressions(diags []Diagnostic, sups []suppression) []Diagnostic {
	if len(sups) == 0 {
		return diags
	}
	covered := make(map[lineKey]bool)
	for _, s := range sups {
		for _, a := range s.analyzers {
			covered[lineKey{s.file, s.line, a}] = true
			covered[lineKey{s.file, s.line + 1, a}] = true
		}
	}
	kept := diags[:0]
	for _, d := range diags {
		if covered[lineKey{d.Pos.Filename, d.Pos.Line, d.Analyzer}] {
			continue
		}
		kept = append(kept, d)
	}
	return kept
}

// reportStale reports every analyzer an annotation names that ran over
// the package yet found nothing on the lines the annotation covers: a
// suppression that silences no finding outlived its reason. Analyzers
// the run skipped are not judged, so a single-analyzer run leaves the
// others' annotations alone. diags are the findings before suppression.
func reportStale(diags []Diagnostic, sups []suppression, ran map[string]bool, report func(token.Pos, string)) {
	found := make(map[lineKey]bool, len(diags))
	for _, d := range diags {
		found[lineKey{d.Pos.Filename, d.Pos.Line, d.Analyzer}] = true
	}
	for _, s := range sups {
		for _, a := range s.analyzers {
			if ran[a] && !found[lineKey{s.file, s.line, a}] && !found[lineKey{s.file, s.line + 1, a}] {
				report(s.pos, fmt.Sprintf("stale suppression: //lwlint:ignore %s silences no finding; delete it", a))
			}
		}
	}
}

// runPackage runs the analyzers over one loaded package, applying
// suppressions, and returns sorted diagnostics. relFile, when non-nil,
// rewrites reported filenames (the driver makes them module-relative).
func runPackage(cfg *Config, pkg *Package, analyzers []*Analyzer, relFile func(token.Position) string, refs *RefIndex) []Diagnostic {
	// Suppressions may name any catalog analyzer, not just the ones this
	// run executes: a single-analyzer run (e.g. the simrand-only policy
	// test) must not misreport the others' annotations as unknown.
	known := make(map[string]bool, len(analyzers))
	for _, a := range Analyzers() {
		known[a.Name] = true
	}
	ran := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		known[a.Name] = true
		ran[a.Name] = true
	}
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Cfg:        cfg,
			Fset:       pkg.Fset,
			Files:      pkg.Files,
			ImportPath: pkg.ImportPath,
			Pkg:        pkg.Types,
			Info:       pkg.Info,
			Refs:       refs,
			analyzer:   a,
			diags:      &diags,
			relFile:    relFile,
		}
		a.Run(pass)
	}
	// Suppression syntax errors and stale suppressions report under the
	// pseudo-analyzer name "lwlint" and cannot themselves be suppressed.
	meta := &Pass{
		Cfg: cfg, Fset: pkg.Fset, Files: pkg.Files, ImportPath: pkg.ImportPath,
		Pkg: pkg.Types, Info: pkg.Info,
		analyzer: &Analyzer{Name: "lwlint"}, diags: &diags, relFile: relFile,
	}
	report := func(pos token.Pos, msg string) { meta.Reportf(pos, "%s", msg) }
	var sups []suppression
	for _, f := range pkg.Files {
		sups = append(sups, parseSuppressions(pkg.Fset, f, known, report)...)
	}
	reportStale(diags, sups, ran, report)
	diags = applySuppressions(diags, sups)
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Analyzer < b.Analyzer
	})
	return diags
}

// Run loads the module packages matching patterns and runs the analyzer
// catalog over each, returning all surviving diagnostics sorted by
// position. It is the programmatic equivalent of `lwlint <patterns>`.
func Run(root string, patterns []string, cfg Config, analyzers []*Analyzer) ([]Diagnostic, error) {
	pkgs, err := LoadModule(root, patterns)
	if err != nil {
		return nil, err
	}
	// References are a whole-module property: a run over a subset of the
	// packages still has to see every importer of what it analyzes, and
	// the modules nested under the root (bench/) import it too.
	whole := pkgs
	if len(patterns) > 0 && !(len(patterns) == 1 && patterns[0] == "./...") {
		if whole, err = LoadModule(root, nil); err != nil {
			return nil, err
		}
	}
	nested, err := loadNestedModules(root)
	if err != nil {
		return nil, err
	}
	refs := NewRefIndex(append(whole, nested...))
	var all []Diagnostic
	for _, pkg := range pkgs {
		all = append(all, runPackage(&cfg, pkg, analyzers, moduleRelative(root), refs)...)
	}
	return all, nil
}
