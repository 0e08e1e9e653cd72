package te

import (
	"errors"
	"math"
	"reflect"
	"testing"
	"time"

	"lightwave/internal/dcn"
	"lightwave/internal/par"
)

// testEvalConfig is small enough to replay in a few seconds yet bursty
// and skewed enough that topology engineering matters.
func testEvalConfig() EvalConfig {
	return EvalConfig{
		Trace: TraceConfig{
			Blocks: 8, Epochs: 16,
			BaseBps:             1,
			NumServices:         8,
			ServiceMeanBps:      60,
			ServiceMinEpochs:    8,
			DiurnalAmplitude:    0.3,
			DiurnalPeriodEpochs: 16,
			BurstProb:           0.25,
			Seed:                42,
		},
		Uplinks:        14,
		TrunkBps:       50e9,
		LoadFraction:   0.9,
		EpochSeconds:   60,
		SimSeconds:     1,
		MeanFlowBytes:  2e9,
		Predictor:      PredictorConfig{Warmup: 2},
		CooldownEpochs: 2,
		Seed:           7,
	}
}

func TestEvaluateOnlineBeatsStaticAndHoldsFloor(t *testing.T) {
	res, err := Evaluate(testEvalConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Loop.Reconfigs == 0 {
		t.Fatalf("online loop never reconfigured: %+v", res.Loop)
	}
	if res.Online.EffectiveBps <= res.Static.EffectiveBps {
		t.Errorf("online %g bps does not beat static %g bps",
			res.Online.EffectiveBps, res.Static.EffectiveBps)
	}
	if res.Oracle.MeanBps < res.Online.MeanBps*0.95 {
		t.Errorf("oracle %g bps implausibly below online %g bps",
			res.Oracle.MeanBps, res.Online.MeanBps)
	}
	// The acceptance invariant: no reconfiguration stage ever dipped
	// below the configured capacity floor (default 0.75).
	if res.MinResidualFraction < 0.75-1e-9 {
		t.Errorf("residual capacity fell to %g, floor is 0.75", res.MinResidualFraction)
	}
	if res.OnlineGain <= 0 {
		t.Errorf("OnlineGain = %g, want > 0", res.OnlineGain)
	}
	if len(res.Online.PerEpochBps) != 16 {
		t.Errorf("per-epoch series has %d entries, want 16", len(res.Online.PerEpochBps))
	}
}

// TestEvaluateRefusesNaNHorizon: withDefaults fills only non-positive
// settings, so a NaN SimSeconds reaches the flow simulator, which must
// refuse it rather than loop forever.
func TestEvaluateRefusesNaNHorizon(t *testing.T) {
	cfg := testEvalConfig()
	cfg.SimSeconds = math.NaN()
	done := make(chan error, 1)
	go func() {
		_, err := Evaluate(cfg)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, dcn.ErrDegenerate) {
			t.Fatalf("err = %v, want %v", err, dcn.ErrDegenerate)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Evaluate did not return")
	}
}

func TestEvaluateDeterministicAcrossWorkerCounts(t *testing.T) {
	prev := par.SetWorkers(1)
	defer par.SetWorkers(prev)

	cfg := testEvalConfig()
	cfg.Trace.Epochs = 8
	base, err := Evaluate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{4, 8} {
		par.SetWorkers(w)
		got, err := Evaluate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(base, got) {
			t.Fatalf("Evaluate differs between 1 and %d workers:\n1: %+v\n%d: %+v", w, base, w, got)
		}
	}
}

func TestTraceDeterministicEpochAccess(t *testing.T) {
	cfg := testEvalConfig().Trace
	all, err := cfg.Generate()
	if err != nil {
		t.Fatal(err)
	}
	// Random epoch access must agree with bulk generation.
	for _, e := range []int{0, 3, cfg.Epochs - 1} {
		m, err := cfg.Epoch(e)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(m, all[e]) {
			t.Fatalf("Epoch(%d) differs from Generate()[%d]", e, e)
		}
	}
	if _, err := cfg.Epoch(cfg.Epochs); err == nil {
		t.Error("out-of-range epoch accepted")
	}
}
