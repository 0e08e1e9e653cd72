// Command experiments regenerates every table and figure of the paper's
// evaluation from the simulation substrates, printing the same rows/series
// the paper reports. Run with -list to see experiment names and -only to
// run a subset; EXPERIMENTS.md records one full run against the paper's
// numbers. It exits non-zero when an -only name is unknown or any number
// leaves the band internal/figures holds it to.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"lightwave/internal/figures"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command: it parses args, prints the report to stdout
// and problems to stderr, and returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list experiments and exit")
	only := fs.String("only", "", "comma-separated experiment names to run")
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}

	if *list {
		for _, e := range figures.All() {
			fmt.Fprintf(stdout, "%-8s %s\n", e.Name, e.Desc)
		}
		return 0
	}
	var names []string
	if *only != "" {
		for _, n := range strings.Split(*only, ",") {
			names = append(names, strings.TrimSpace(n))
		}
	}
	exps, err := figures.Select(names)
	if err != nil {
		fmt.Fprintf(stderr, "%v; use -list\n", err)
		return 1
	}
	code := 0
	for _, e := range exps {
		fmt.Fprintf(stdout, "==== %s: %s ====\n", e.Name, e.Desc)
		if _, err := e.Run(stdout); err != nil {
			fmt.Fprintln(stderr, err)
			code = 1
		}
		fmt.Fprintln(stdout)
	}
	return code
}
