package superpod

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/*.golden from the running implementation")

// TestEvaluateGolden pins the live three-policy report on a stream with
// cube failures and repairs but no pod loss — the shape of the bench's
// sim_sched configuration at a short horizon on small pods. Recorded at
// the commit before the evaluator's control plane moved onto the chaos
// lab.
func TestEvaluateGolden(t *testing.T) {
	cfg := testConfig()
	cfg.HorizonSeconds = 1500
	cfg.PodLossAtSeconds, cfg.PodRestoreAtSeconds = 0, 0
	rep, err := Evaluate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := rep.Text()
	path := filepath.Join("testdata", "evaluate.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (record it with -update-golden)", err)
	}
	if got != string(want) {
		t.Errorf("%s moved:\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}
