package lint

import (
	"fmt"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{File: "internal/dcn/program.go", Line: 131, Analyzer: "maprange", Message: "iteration over map"}
	got := d.String()
	want := "internal/dcn/program.go:131: [maprange] iteration over map"
	if got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

// parseSrc parses one synthetic file and returns its suppressions plus
// the syntax errors the parser reported.
func parseSrc(t *testing.T, src string) ([]suppression, []string) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "x.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	known := map[string]bool{}
	for _, a := range Analyzers() {
		known[a.Name] = true
	}
	var errs []string
	sups := parseSuppressions(fset, f, known, func(_ token.Pos, msg string) {
		errs = append(errs, msg)
	})
	return sups, errs
}

func TestSuppressionParsing(t *testing.T) {
	cases := []struct {
		name    string
		comment string
		wantSup int
		wantErr string // substring of the reported error, "" for none
	}{
		{"valid", "//lwlint:ignore walltime telemetry only", 1, ""},
		{"multi", "//lwlint:ignore walltime,maprange shared reason", 1, ""},
		{"no analyzer", "//lwlint:ignore", 0, "names no analyzer"},
		{"no reason", "//lwlint:ignore walltime", 0, "needs a written reason"},
		{"unknown", "//lwlint:ignore wibble because", 0, `unknown analyzer "wibble"`},
		{"unknown in list", "//lwlint:ignore walltime,wibble because", 0, `unknown analyzer "wibble"`},
		{"not ours", "//lwlint:ignorance is bliss", 0, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			src := "package x\n\n" + tc.comment + "\nfunc f() {}\n"
			sups, errs := parseSrc(t, src)
			if len(sups) != tc.wantSup {
				t.Errorf("got %d suppressions, want %d", len(sups), tc.wantSup)
			}
			if tc.wantErr == "" && len(errs) > 0 {
				t.Errorf("unexpected errors: %v", errs)
			}
			if tc.wantErr != "" {
				found := false
				for _, e := range errs {
					if strings.Contains(e, tc.wantErr) {
						found = true
					}
				}
				if !found {
					t.Errorf("errors %v do not mention %q", errs, tc.wantErr)
				}
			}
		})
	}
}

func TestSuppressionReason(t *testing.T) {
	sups, errs := parseSrc(t, "package x\n\n//lwlint:ignore maprange teardown order is free\nfunc f() {}\n")
	if len(errs) > 0 || len(sups) != 1 {
		t.Fatalf("sups=%v errs=%v", sups, errs)
	}
	if sups[0].reason != "teardown order is free" {
		t.Errorf("reason = %q", sups[0].reason)
	}
	if len(sups[0].analyzers) != 1 || sups[0].analyzers[0] != "maprange" {
		t.Errorf("analyzers = %v", sups[0].analyzers)
	}
}

func TestApplySuppressions(t *testing.T) {
	mk := func(file string, line int, a string) Diagnostic {
		return Diagnostic{
			Pos:  token.Position{Filename: file, Line: line},
			File: file, Line: line, Analyzer: a,
		}
	}
	diags := []Diagnostic{
		mk("a.go", 10, "walltime"), // same line as annotation: covered
		mk("a.go", 11, "walltime"), // line below annotation: covered
		mk("a.go", 12, "walltime"), // two below: survives
		mk("a.go", 11, "maprange"), // other analyzer: survives
		mk("b.go", 10, "walltime"), // other file: survives
	}
	sups := []suppression{{file: "a.go", line: 10, analyzers: []string{"walltime"}}}
	kept := applySuppressions(append([]Diagnostic(nil), diags...), sups)
	if len(kept) != 3 {
		t.Fatalf("kept %d diagnostics, want 3: %v", len(kept), kept)
	}
	for _, d := range kept {
		if d.File == "a.go" && d.Analyzer == "walltime" && d.Line != 12 {
			t.Errorf("diagnostic should have been suppressed: %+v", d)
		}
	}
}

func TestStaleSuppressions(t *testing.T) {
	mk := func(line int, a string) Diagnostic {
		return Diagnostic{Pos: token.Position{Filename: "a.go", Line: line}, Analyzer: a}
	}
	diags := []Diagnostic{mk(11, "walltime"), mk(20, "maprange")}
	sups := []suppression{
		{file: "a.go", line: 10, analyzers: []string{"walltime"}, pos: 1},             // silences line 11
		{file: "a.go", line: 20, analyzers: []string{"maprange", "walltime"}, pos: 2}, // walltime part stale
		{file: "a.go", line: 30, analyzers: []string{"walltime"}, pos: 3},             // stale
		{file: "a.go", line: 40, analyzers: []string{"hotalloc"}, pos: 4},             // hotalloc did not run
		{file: "b.go", line: 10, analyzers: []string{"walltime"}, pos: 5},             // other file: stale
	}
	ran := map[string]bool{"walltime": true, "maprange": true}
	var got []string
	reportStale(diags, sups, ran, func(pos token.Pos, msg string) {
		got = append(got, fmt.Sprintf("%d %s", pos, msg))
	})
	want := []string{
		"2 stale suppression: //lwlint:ignore walltime silences no finding; delete it",
		"3 stale suppression: //lwlint:ignore walltime silences no finding; delete it",
		"5 stale suppression: //lwlint:ignore walltime silences no finding; delete it",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("stale reports:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

func TestDefaultConfigNamesRealPackages(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.ModulePath != "lightwave" {
		t.Fatalf("module path %q", cfg.ModulePath)
	}
	if !cfg.IsDeterministic(cfg.SimPackage) {
		t.Error("the sim package itself must be under the deterministic contract")
	}
	if cfg.IsDeterministic("lightwave/internal/fleet") {
		t.Error("fleet runs real-time reconciler workers and must not be in the deterministic set")
	}
	if !cfg.inFsyncScope("lightwave/internal/wal") {
		t.Error("wal must be in fsync scope")
	}
	if !cfg.inFsyncScope("lightwave/internal/daemon") {
		t.Error("the daemons' shared shutdown path closes the store and must be in fsync scope")
	}
	for _, p := range []string{"ctlrpc", "dcn", "fec", "lint", "ocs"} {
		if !strings.HasPrefix("lightwave/internal/"+p, cfg.DeadExportScope) {
			t.Errorf("package %s must be in deadexport scope", p)
		}
	}
	if strings.HasPrefix("lightwave/cmd/lwfd", cfg.DeadExportScope) {
		t.Error("cmd/ is a liveness root, not deadexport scope")
	}
}
