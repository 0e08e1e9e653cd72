package chaos

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/*.golden from the running implementation")

// checkGolden compares got with testdata/<name>.golden byte for byte.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
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

// TestEvaluateGolden pins the full report of the cmd/experiments drill —
// the configuration bench/simload.go hashes into sim_flow's digest — so a
// refactor of the replay rig that moves a byte fails `go test` here, with
// a readable diff, before it fails the bench's opaque sha256. Recorded at
// the commit before the evaluators were moved onto the shared rig.
func TestEvaluateGolden(t *testing.T) {
	rep, err := Evaluate(outageCfg())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "single-ocs-outage-2", rep.Text())
}
