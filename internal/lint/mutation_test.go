package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The mutation tests prove the gate actually gates: a synthetic module
// named lightwave with the PR 2 map-iteration bug injected into a
// dcn-like package must fail the real DefaultConfig run, and the sorted
// fix of the same code must pass it. This is the regression test for the
// regression test.

const buggyProgram = `package dcn

// Program mimics the PR 2 bug: the hardware programming sequence follows
// randomized map iteration order.
func Program(desired map[[2]int]int) [][2]int {
	var order [][2]int
	for k := range desired {
		order = append(order, k)
	}
	return order
}
`

const fixedProgram = `package dcn

import "sort"

// Program establishes circuits in sorted edge order.
func Program(desired map[[2]int]int) [][2]int {
	var order [][2]int
	for k := range desired {
		order = append(order, k)
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i][0] != order[j][0] {
			return order[i][0] < order[j][0]
		}
		return order[i][1] < order[j][1]
	})
	return order
}
`

// writeModule lays out a throwaway module that shadows the real module
// path, so DefaultConfig's package lists apply verbatim. A command calls
// Program, as cmd/ roots every internal export.
func writeModule(t *testing.T, programSrc string) string {
	t.Helper()
	dir := t.TempDir()
	writeFiles(t, dir, map[string]string{
		"go.mod":                  "module lightwave\n\ngo 1.22\n",
		"internal/dcn/program.go": programSrc,
		"cmd/lwplan/main.go": `package main

import "lightwave/internal/dcn"

func main() { dcn.Program(nil) }
`,
	})
	return dir
}

// writeFiles writes module-relative path → source under dir.
func writeFiles(t *testing.T, dir string, files map[string]string) {
	t.Helper()
	for path, src := range files {
		full := filepath.Join(dir, path)
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(full, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func TestMutationMapRangeBugIsCaught(t *testing.T) {
	dir := writeModule(t, buggyProgram)
	diags, err := Run(dir, []string{"./..."}, DefaultConfig(), Analyzers())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, d := range diags {
		if d.Analyzer == "maprange" && d.File == "internal/dcn/program.go" {
			found = true
		} else {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	if !found {
		t.Fatal("re-introduced map-iteration bug was not caught by maprange")
	}
}

func TestMutationSortedFixIsClean(t *testing.T) {
	dir := writeModule(t, fixedProgram)
	diags, err := Run(dir, []string{"./..."}, DefaultConfig(), Analyzers())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("unexpected diagnostic: %s", d)
	}
}

// TestDeadExportSeesImportersAcrossPackages: liveness is resolved across
// separately type-checked packages, so a control-plane export called only
// from a command must be live, one called only from a _test file or from
// nowhere must be flagged — and a run narrowed to the one package must
// reach the same verdict as a whole-module run.
func TestDeadExportSeesImportersAcrossPackages(t *testing.T) {
	dir := t.TempDir()
	writeFiles(t, dir, map[string]string{
		"go.mod": "module lightwave\n\ngo 1.22\n",
		"internal/ctlrpc/c.go": `package ctlrpc

type Client struct{}

func Dial() *Client { return &Client{} }

func (c *Client) Status() {}

func (c *Client) StatusContext() {}

func RunLoad() {}
`,
		"internal/ctlrpc/c_test.go": `package ctlrpc

import "testing"

func TestStatusContext(t *testing.T) { Dial().StatusContext(); RunLoad() }
`,
		"cmd/lwfctl/main.go": `package main

import "lightwave/internal/ctlrpc"

func main() { ctlrpc.Dial().Status() }
`,
	})
	for _, patterns := range [][]string{{"./..."}, {"./internal/ctlrpc"}} {
		diags, err := Run(dir, patterns, DefaultConfig(), Analyzers())
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, d := range diags {
			got = append(got, d.String())
		}
		want := []string{
			"internal/ctlrpc/c.go:9: [deadexport] exported method StatusContext",
			"internal/ctlrpc/c.go:11: [deadexport] exported function RunLoad",
		}
		if len(got) != len(want) {
			t.Fatalf("%v: diagnostics %q, want prefixes %q", patterns, got, want)
		}
		for i := range want {
			if !strings.HasPrefix(got[i], want[i]) {
				t.Errorf("%v: diagnostic %q, want prefix %q", patterns, got[i], want[i])
			}
		}
	}
}

// TestDeadExportNestedModuleRoots: a module nested under the root (bench/,
// its own go.mod importing lightwave/internal/...) is a liveness root, so
// an export only its non-test files call stays live, one only its _test.go
// calls is still reported, and the nested module's own surface (Unused) is
// never analysed. Without the nested-module index Perm is reported too.
func TestDeadExportNestedModuleRoots(t *testing.T) {
	dir := t.TempDir()
	writeFiles(t, dir, map[string]string{
		"go.mod": "module lightwave\n\ngo 1.22\n",
		"internal/sim/rng.go": `package sim

func Perm(n int) []int { return make([]int, n) }

func Shuffle() {}
`,
		"bench/go.mod": "module lightwave/bench\n\ngo 1.22\n\nrequire lightwave v0.0.0\n\nreplace lightwave => ../\n",
		"bench/ops.go": `package main

import "lightwave/internal/sim"

func Unused() {}

func main() { _ = sim.Perm(4) }
`,
		"bench/ops_test.go": `package main

import (
	"testing"

	"lightwave/internal/sim"
)

func TestShuffle(t *testing.T) { sim.Shuffle() }
`,
	})
	diags, err := Run(dir, []string{"./..."}, DefaultConfig(), Analyzers())
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range diags {
		got = append(got, d.String())
	}
	want := "internal/sim/rng.go:5: [deadexport] exported function Shuffle"
	if len(got) != 1 || !strings.HasPrefix(got[0], want) {
		t.Fatalf("diagnostics %q, want one with prefix %q", got, want)
	}
}
