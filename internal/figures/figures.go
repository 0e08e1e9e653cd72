// Package figures is the registry of the paper's evaluation: every table
// and figure, plus the extension experiments, as one entry that writes its
// report and returns typed rows checked against the paper. cmd/experiments
// prints the entries, the root BenchmarkFigures times them and reports
// their rows, and TestFigures runs them all; EXPERIMENTS.md records one
// full run against the paper's numbers.
package figures

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// A Row is one number an entry measures, with the band it must fall in.
type Row struct {
	// Key names the row within its entry; BenchmarkFigures reports the
	// row under it, so it holds no whitespace.
	Key string
	// Quantity says what was measured.
	Quantity string
	// Paper is the paper's value as the paper states it.
	Paper    string
	Measured float64
	// Lo and Hi bound Measured, inclusive.
	Lo, Hi float64
	// Deviation marks a band pinned at the reproduction's own value where
	// it disagrees with the paper's; EXPERIMENTS.md says why.
	Deviation bool
}

// inf is the open side of a one-sided band.
var inf = math.Inf(1)

// within is a row bounded by [lo, hi].
func within(key, quantity, paper string, measured, lo, hi float64) Row {
	return Row{Key: key, Quantity: quantity, Paper: paper, Measured: measured, Lo: lo, Hi: hi}
}

// near is a row held to want ± tol.
func near(key, quantity, paper string, measured, want, tol float64) Row {
	return within(key, quantity, paper, measured, want-tol, want+tol)
}

// deviation is a near row whose want is the reproduction's value, not the
// paper's.
func deviation(key, quantity, paper string, measured, want, tol float64) Row {
	r := near(key, quantity, paper, measured, want, tol)
	r.Deviation = true
	return r
}

// match is 1 when got is the paper's value, 0 otherwise.
func match(key, quantity, paper, got string) Row {
	v := 0.0
	if got == paper {
		v = 1
	}
	return near(key, quantity, paper, v, 1, 0)
}

// An Entry regenerates one table or figure.
type Entry struct {
	Name string
	Desc string
	run  func(w io.Writer) ([]Row, error)
}

// Run writes the entry's report to w and returns its rows. The error names
// the entry and every row outside its band.
func (e Entry) Run(w io.Writer) ([]Row, error) {
	rows, err := e.run(w)
	if err != nil {
		return rows, fmt.Errorf("%s: %w", e.Name, err)
	}
	var bad []string
	for _, r := range rows {
		if r.Lo <= r.Measured && r.Measured <= r.Hi {
			continue
		}
		paper := "paper " + r.Paper
		if r.Deviation {
			paper = "recorded deviation, " + paper
		}
		bad = append(bad, fmt.Sprintf("%s = %.6g outside [%.6g, %.6g] (%s; %s)", r.Key, r.Measured, r.Lo, r.Hi, r.Quantity, paper))
	}
	if len(bad) > 0 {
		return rows, fmt.Errorf("%s: %s", e.Name, strings.Join(bad, "; "))
	}
	return rows, nil
}

// All returns every entry in report order.
func All() []Entry {
	return []Entry{
		{"fig10a", "OCS insertion-loss histogram", fig10a},
		{"fig10b", "OCS return loss vs port", fig10b},
		{"fig11a", "analytic BER vs power with/without OIM", fig11a},
		{"fig11b", "Monte-Carlo BER vs analytic model", fig11b},
		{"fig12", "concatenated SFEC sensitivity improvement", fig12},
		{"fig13", "fleet per-lane BER distribution", fig13},
		{"table1", "pod fabric cost/power comparison", table1},
		{"table2", "LLM slice optimization speedups", table2},
		{"fig15a", "fabric availability vs OCS availability", fig15a},
		{"fig15b", "goodput vs slice size", fig15b},
		{"dcn", "spine-free DCN savings and topology engineering", dcnExperiment},
		{"deploy", "deployment modularity and bidi savings", deployExperiment},
		{"sched", "live fleet-integrated scheduler utilization comparison", schedExperiment},
		{"fig2", "hybrid ICI-DCN collective", fig2Experiment},
		{"tablec1", "OCS technology comparison", tableC1},
		{"reliability", "OCS lifetime and field availability", reliabilityExperiment},
		{"circulator", "Appendix B Jones-calculus circulator physics", circulatorExperiment},
		{"wdm", "per-lane CWDM8 budgets and interop", wdmExperiment},
		{"defrag", "defragmentation vs reconfigurability", defragExperiment},
		{"scaleout", "multi-pod hybrid ICI-DCN training", scaleoutExperiment},
		{"refresh", "in-service technology refresh trajectory", refreshExperiment},
		{"campus", "campus fabric with shifting services", campusExperiment},
		{"te", "online traffic-aware topology engineering loop", teExperiment},
		{"chaos", "single-OCS-outage resilience drill", chaosExperiment},
		{"crashrestart", "WAL crash-restart recovery drill", crashRestartExperiment},
	}
}

// Select returns the named entries in report order, or every entry when
// names is empty. Any name that is not an entry is an error, and the error
// lists them all.
func Select(names []string) ([]Entry, error) {
	all := All()
	if len(names) == 0 {
		return all, nil
	}
	want := map[string]bool{}
	for _, n := range names {
		want[n] = true
	}
	var picked []Entry
	for _, e := range all {
		if want[e.Name] {
			picked = append(picked, e)
			delete(want, e.Name)
		}
	}
	var unknown []string
	for _, n := range names {
		if want[n] {
			unknown = append(unknown, fmt.Sprintf("%q", n))
			delete(want, n)
		}
	}
	if len(unknown) > 0 {
		return nil, fmt.Errorf("unknown experiment %s", strings.Join(unknown, ", "))
	}
	return picked, nil
}
