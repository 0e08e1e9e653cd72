package main

import (
	"strings"
	"testing"

	"lightwave/internal/figures"
)

// slow names the entries that run whole-fabric simulations.
var slow = map[string]bool{"fig11b": true, "dcn": true, "sched": true, "defrag": true, "te": true, "chaos": true, "crashrestart": true}

func TestFastExperiments(t *testing.T) { runEach(t, false) }

func TestSlowExperiments(t *testing.T) { runEach(t, true) }

// runEach runs `experiments -only <name>` for every entry with the given
// slow mark: each must exit 0, write no error, and print its header and a
// report under it.
func runEach(t *testing.T, isSlow bool) {
	for _, e := range figures.All() {
		if slow[e.Name] != isSlow {
			continue
		}
		t.Run(e.Name, func(t *testing.T) {
			var out, errs strings.Builder
			code := run([]string{"-only", e.Name}, &out, &errs)
			header := "==== " + e.Name + ": " + e.Desc + " ====\n"
			if code != 0 || errs.Len() != 0 || !strings.HasPrefix(out.String(), header) || out.Len() <= len(header)+1 {
				t.Fatalf("exit %d, stderr %q, report:\n%s", code, errs.String(), out.String())
			}
		})
	}
}
