// Package suppress is the suppression-semantics corpus: a reasoned
// //lwlint:ignore covers its own line and the line below, only for the
// analyzers it names, and is itself a finding when it silences nothing.
package suppress

import "time"

// Stamp is wall-clock by design in this corpus; the annotation above the
// call carries the reason and the analyzer stays quiet.
func Stamp() time.Time {
	//lwlint:ignore walltime corpus: sanctioned wall-clock read
	return time.Now()
}

// Sleep uses the trailing form, which covers its own line.
func Sleep() {
	time.Sleep(time.Millisecond) //lwlint:ignore walltime corpus: trailing form
}

// Wrong names an analyzer that did not fire here, so the maprange
// finding on the next line survives and the annotation is stale.
func Wrong(m map[string]int) []string {
	var out []string
	//lwlint:ignore walltime corpus: names the wrong analyzer, does not bind // want `\[lwlint\] stale suppression: //lwlint:ignore walltime silences no finding`
	for k := range m { // want `\[maprange\] iteration over map m`
		out = append(out, k)
	}
	return out
}

// Both suppresses two analyzers with one annotation: the wall-clock read
// on its line and the unsorted collect below it would otherwise be a
// walltime and a maprange finding.
func Both(m map[string]int) ([]string, time.Time) {
	var out []string
	now := time.Now() //lwlint:ignore maprange,walltime corpus: one annotation, two analyzers
	for k := range m {
		out = append(out, k)
	}
	return out, now
}
