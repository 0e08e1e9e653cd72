// Command lwlint runs the project-invariant analyzer suite over the
// module: the contracts the compiler cannot see (sim.Substream-only
// randomness, virtual time in deterministic packages, sorted map
// iteration, the Injector→Manager lock order, 0-alloc hot paths, durable
// Sync/Close error handling) enforced mechanically. See DESIGN.md §15.
//
// Usage:
//
//	lwlint [-json] [-list] [packages...]
//
// Diagnostics print as `file:line: [analyzer] message` (or as a JSON
// array with -json); the exit status is 1 when any unsuppressed
// diagnostic remains, 2 on driver errors. Suppress a finding with
// `//lwlint:ignore <analyzer> <reason>` on or directly above the line —
// the reason is mandatory, and an annotation that silences no finding of
// an analyzer the run executed is itself reported as stale.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"lightwave/internal/lint"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit diagnostics as a JSON array (for tooling)")
	list := flag.Bool("list", false, "list the analyzer catalog and exit")
	flag.Parse()

	analyzers := lint.Analyzers()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-10s %s\n", a.Name, a.Doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	root, err := moduleRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "lwlint:", err)
		os.Exit(2)
	}
	diags, err := lint.Run(root, patterns, lint.DefaultConfig(), analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lwlint:", err)
		os.Exit(2)
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if diags == nil {
			diags = []lint.Diagnostic{}
		}
		if err := enc.Encode(diags); err != nil {
			fmt.Fprintln(os.Stderr, "lwlint:", err)
			os.Exit(2)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		if !*jsonOut {
			fmt.Fprintf(os.Stderr, "lwlint: %d finding(s)\n", len(diags))
		}
		os.Exit(1)
	}
}

// moduleRoot walks up from the working directory to the enclosing go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}
