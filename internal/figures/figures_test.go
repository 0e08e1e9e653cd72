package figures

import (
	"io"
	"strings"
	"testing"
)

// TestFigures runs every entry: each must finish and keep every row inside
// its band. That pins the paper-facing numbers — among them Fig 12's gains
// (1.76 ± 0.02 dB clean and within 0.2 dB of the paper's 1.6; 3.01 ± 0.02
// dB at MPI −32 dB, a recorded deviation), Fig 13's 6144 lanes all under
// 2e-4 by ≥ 1.5 decades, and the §4.2.4 utilization ordering — so a
// refactor of the substrates cannot drift them unnoticed.
func TestFigures(t *testing.T) {
	for _, e := range All() {
		t.Run(e.Name, func(t *testing.T) {
			var out strings.Builder
			rows, err := e.Run(&out)
			if err != nil {
				t.Fatal(err)
			}
			if out.Len() == 0 {
				t.Error("empty report")
			}
			keys := map[string]bool{}
			for _, r := range rows {
				if r.Key == "" || strings.ContainsAny(r.Key, " \t\n") || keys[r.Key] {
					t.Errorf("row key %q: must be non-empty, unique and free of whitespace (BenchmarkFigures reports it as a unit)", r.Key)
				}
				keys[r.Key] = true
			}
		})
	}
}

func TestRunNamesRowsOutsideBand(t *testing.T) {
	e := Entry{Name: "probe", run: func(w io.Writer) ([]Row, error) {
		return []Row{
			near("in", "inside", "1", 1, 1, 0.1),
			deviation("out", "pinned", "1.6 dB", 3.01, 3.05, 0.02),
		}, nil
	}}
	_, err := e.Run(io.Discard)
	if err == nil {
		t.Fatal("row outside its band passed")
	}
	for _, want := range []string{"probe", "out = 3.01", "recorded deviation", "paper 1.6 dB"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
	if strings.Contains(err.Error(), "in =") {
		t.Errorf("error %q names a row inside its band", err)
	}
}

func TestSelect(t *testing.T) {
	for _, c := range []struct {
		names   []string
		want    []string // entry names, in report order
		unknown []string // names the error must list
	}{
		{names: nil, want: names(All())},
		{names: []string{"fig12", "fig10a"}, want: []string{"fig10a", "fig12"}},
		{names: []string{"fig10a", "fig10a"}, want: []string{"fig10a"}},
		// A typo beside a real name used to run the real one and exit 0.
		{names: []string{"fig10a", "fgi12"}, unknown: []string{"fgi12"}},
		{names: []string{"nope", "fig10a", "also-nope"}, unknown: []string{"nope", "also-nope"}},
	} {
		got, err := Select(c.names)
		if len(c.unknown) > 0 {
			if err == nil {
				t.Errorf("Select(%q) = %v, want an error", c.names, names(got))
				continue
			}
			for _, u := range c.unknown {
				if !strings.Contains(err.Error(), `"`+u+`"`) {
					t.Errorf("Select(%q) error %q does not list %q", c.names, err, u)
				}
			}
			continue
		}
		if err != nil {
			t.Errorf("Select(%q): %v", c.names, err)
			continue
		}
		if g := names(got); strings.Join(g, ",") != strings.Join(c.want, ",") {
			t.Errorf("Select(%q) = %v, want %v", c.names, g, c.want)
		}
	}
}

func names(es []Entry) []string {
	var out []string
	for _, e := range es {
		out = append(out, e.Name)
	}
	return out
}
