package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"lightwave/internal/figures"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/report.golden from the running implementation")

// slow names the entries that run whole-fabric simulations.
var slow = map[string]bool{"fig11b": true, "dcn": true, "sched": true, "defrag": true, "te": true, "chaos": true, "crashrestart": true}

func TestFastExperiments(t *testing.T) { runEach(t, false) }

func TestSlowExperiments(t *testing.T) { runEach(t, true) }

// runEach runs `experiments -only <name>` for every entry with the given
// slow mark: each must exit 0, write no error, and print its section of
// testdata/report.golden byte for byte, its header first.
func runEach(t *testing.T, isSlow bool) {
	want := goldenSections(t)
	for _, e := range figures.All() {
		if slow[e.Name] != isSlow {
			continue
		}
		t.Run(e.Name, func(t *testing.T) {
			var out, errs strings.Builder
			if code := run([]string{"-only", e.Name}, &out, &errs); code != 0 || errs.Len() != 0 {
				t.Fatalf("exit %d, stderr %q, report:\n%s", code, errs.String(), out.String())
			}
			if got := out.String(); got != want[e.Name] {
				t.Errorf("report moved from testdata/report.golden (record it with -update-golden):\n--- got ---\n%s--- want ---\n%s", got, want[e.Name])
			}
		})
	}
}

var recordOnce sync.Once

// goldenSections reads testdata/report.golden, the whole report of
// `experiments` with no flags, and splits it into each entry's section:
// its header line ("==== <name>: ...") up to the next header. With
// -update-golden it first records the file from one full run.
func goldenSections(t *testing.T) map[string]string {
	t.Helper()
	path := filepath.Join("testdata", "report.golden")
	if *updateGolden {
		recordOnce.Do(func() {
			var out, errs strings.Builder
			if code := run(nil, &out, &errs); code != 0 {
				t.Fatalf("exit %d, stderr %q", code, errs.String())
			}
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(out.String()), 0o644); err != nil {
				t.Fatal(err)
			}
		})
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (record it with -update-golden)", err)
	}
	sections := make(map[string]string)
	var name string
	for _, line := range strings.SplitAfter(string(b), "\n") {
		if header, ok := strings.CutPrefix(line, "==== "); ok {
			name, _, _ = strings.Cut(header, ":")
		}
		sections[name] += line
	}
	return sections
}
