package te

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
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

// TestEvaluateGolden pins Evaluate bit for bit on a small trace: every
// float of the three scenarios as a hex-float, plus the loop's final
// status. The normalisation's multiplication order, the epoch walk and
// the per-epoch substream seeds are all in these numbers. Recorded at the
// commit before the epoch flow-replay was shared with chaos.
func TestEvaluateGolden(t *testing.T) {
	cfg := testEvalConfig()
	cfg.Trace.Epochs = 8
	res, err := Evaluate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, s := range []ScenarioResult{res.Static, res.Oracle, res.Online} {
		fmt.Fprintf(&b, "%s: mean_bps=%x effective_bps=%x mean_fct=%x\n", s.Name, s.MeanBps, s.EffectiveBps, s.MeanFCT)
		for e, v := range s.PerEpochBps {
			fmt.Fprintf(&b, "  epoch %d: bps=%x\n", e, v)
		}
	}
	fmt.Fprintf(&b, "gain: online=%x oracle=%x min_residual=%x\n", res.OnlineGain, res.OracleGain, res.MinResidualFraction)
	l := res.Loop
	fmt.Fprintf(&b, "loop: epoch=%d reconfigs=%d skipped=%d stages=%d trunks_moved=%d current_trunks=%d last_reconfig_epoch=%d\n",
		l.Epoch, l.Reconfigs, l.SkippedReconfigs, l.Stages, l.TrunksMoved, l.CurrentTrunks, l.LastReconfigEpoch)
	fmt.Fprintf(&b, "loop: last_gain=%x pred_error=%x min_residual=%x drained_bps_s=%x reason=%q\n",
		l.LastGain, l.LastPredictionError, l.MinResidualFraction, l.DrainedCapacityBpsSeconds, l.LastReason)
	checkGolden(t, "evaluate", b.String())
}
