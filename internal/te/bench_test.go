package te

import (
	"fmt"
	"testing"

	"lightwave/internal/dcn"
)

// BenchmarkPredictorUpdate measures the per-epoch cost of feeding one
// observed matrix through the per-pair EWMA detectors and peak-holds —
// the collector-side hot path of the loop.
func BenchmarkPredictorUpdate(b *testing.B) {
	const blocks = 16
	p, err := NewPredictor(blocks, PredictorConfig{})
	if err != nil {
		b.Fatal(err)
	}
	obs := dcn.SkewedDemand(blocks, 1e9, 8, 200, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Update(obs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlannerDecide measures one full planning decision: engineer a
// target for the predicted matrix, solve both fluid models, and stage the
// diff under the capacity floor.
func BenchmarkPlannerDecide(b *testing.B) {
	const blocks, uplinks = 16, 30
	pl, err := NewPlanner(PlannerConfig{Blocks: blocks, Uplinks: uplinks, TrunkBps: 50e9})
	if err != nil {
		b.Fatal(err)
	}
	mesh, err := dcn.UniformMesh(blocks, uplinks)
	if err != nil {
		b.Fatal(err)
	}
	predicted := dcn.SkewedDemand(blocks, 1e9, 8, 1000, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pl.Decide(mesh, predicted); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvaluateScale runs the sim_flow ledger's te.Evaluate
// configuration at 8 blocks (the ledger's own size), 16 and 32, each with
// uplinks = 2·blocks − 2: the flow-level replay at the scales ROADMAP item
// 6 tracks, and at which DESIGN.md §9 measures the flow simulator's
// mechanisms. `make profile-te` profiles the 16-block case; one 32-block
// run takes tens of seconds.
func BenchmarkEvaluateScale(b *testing.B) {
	for _, blocks := range []int{8, 16, 32} {
		uplinks := 2*blocks - 2
		b.Run(fmt.Sprintf("%dx%d", blocks, uplinks), func(b *testing.B) {
			cfg := EvalConfig{
				Trace: TraceConfig{
					Blocks: blocks, Epochs: 24, BaseBps: 1, NumServices: 8, ServiceMeanBps: 60,
					ServiceMinEpochs: 12, DiurnalAmplitude: 0.3, DiurnalPeriodEpochs: 24,
					BurstProb: 0.25, Seed: 42,
				},
				Uplinks: uplinks, TrunkBps: 50e9, LoadFraction: 0.9, EpochSeconds: 60, SimSeconds: 1,
				MeanFlowBytes: 2e9, CooldownEpochs: 2, Predictor: PredictorConfig{Warmup: 2}, Seed: 7,
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Evaluate(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
