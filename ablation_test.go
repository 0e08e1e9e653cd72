package lightwave_test

// Ablation benchmarks for the design choices DESIGN.md calls out: each one
// removes or degrades a design element and reports how much of the paper's
// benefit disappears.

import (
	"testing"

	"lightwave/internal/avail"
	"lightwave/internal/dsp"
	"lightwave/internal/fec"
	"lightwave/internal/mlperf"
	"lightwave/internal/optics"
	"lightwave/internal/sched"
)

// BenchmarkAblationOIM reports the sensitivity penalty of running the bidi
// link without the interference-mitigation notch filter at MPI −32 dB.
func BenchmarkAblationOIM(b *testing.B) {
	r := dsp.DefaultReceiver()
	var penalty float64
	for i := 0; i < b.N; i++ {
		with, err1 := r.Sensitivity(fec.KP4Threshold, dsp.MPICondition{MPIDB: -32, OIM: true})
		without, err2 := r.Sensitivity(fec.KP4Threshold, dsp.MPICondition{MPIDB: -32})
		if err1 != nil || err2 != nil {
			b.Fatal(err1, err2)
		}
		penalty = without - with
	}
	b.ReportMetric(penalty, "dB-lost-without-OIM")
}

// BenchmarkAblationCirculator compares the re-engineered circulator against
// the legacy telecom part: the MPI increase on a production-style link.
func BenchmarkAblationCirculator(b *testing.B) {
	gen, err := optics.GenerationByName("2x200G-bidi-CWDM4")
	if err != nil {
		b.Fatal(err)
	}
	ta, tb := optics.NewTransceiver(gen), optics.NewTransceiver(gen)
	var delta float64
	for i := 0; i < b.N; i++ {
		good := optics.NewBidiLink(ta, tb, optics.DefaultCirculator(), 1.8, -46, 0.12)
		bad := optics.NewBidiLink(ta, tb, optics.TelecomCirculator(), 1.8, -46, 0.12)
		gb, err1 := good.BudgetTowardB()
		bb, err2 := bad.BudgetTowardB()
		if err1 != nil || err2 != nil {
			b.Fatal(err1, err2)
		}
		delta = bb.MPIDB - gb.MPIDB
	}
	b.ReportMetric(delta, "dB-MPI-worse-with-telecom-part")
}

// BenchmarkAblationDuplex reports the fabric-availability loss of building
// the pod with standard duplex transceivers (96 OCSes) instead of bidi
// (48).
func BenchmarkAblationDuplex(b *testing.B) {
	var loss float64
	for i := 0; i < b.N; i++ {
		bidi := avail.FabricAvailability(0.999, 48)
		duplex := avail.FabricAvailability(0.999, 96)
		loss = bidi - duplex
	}
	b.ReportMetric(100*loss, "availability-pp-lost-with-duplex")
}

// BenchmarkAblationReconfigurability reports the goodput lost at the
// 1024-TPU slice size when the fabric cannot swap cubes (static instead of
// reconfigurable) — the heart of Fig 15b.
func BenchmarkAblationReconfigurability(b *testing.B) {
	p := avail.DefaultPod(0.999)
	var lost float64
	for i := 0; i < b.N; i++ {
		lost = p.Goodput(16, true) - p.Goodput(16, false)
	}
	b.ReportMetric(100*lost, "goodput-pp-lost-static")
}

// BenchmarkAblationShapeSearch reports LLM1's speedup if the slice shape
// could not be adapted (always the symmetric static shape): by definition
// 1.0 vs the optimizer's 3.32 — reported as the forfeited factor.
func BenchmarkAblationShapeSearch(b *testing.B) {
	sys := mlperf.DefaultSystem()
	var forfeited float64
	for i := 0; i < b.N; i++ {
		res, err := sys.OptimizeSlice(mlperf.LLM1(), 64)
		if err != nil {
			b.Fatal(err)
		}
		forfeited = res.Speedup
	}
	b.ReportMetric(forfeited, "speedup-forfeited-without-reconfig")
}

// BenchmarkAblationMPOvershoot sweeps the model-parallel overshoot exponent
// and reports how LLM1's speedup depends on it — the key calibrated
// constant of the Table 2 model.
func BenchmarkAblationMPOvershoot(b *testing.B) {
	var spread float64
	for i := 0; i < b.N; i++ {
		speeds := make([]float64, 0, 3)
		for _, exp := range []float64{0.05, 0.1, 0.2} {
			sys := mlperf.DefaultSystem()
			sys.MPOvershootExp = exp
			res, err := sys.OptimizeSlice(mlperf.LLM1(), 64)
			if err != nil {
				b.Fatal(err)
			}
			speeds = append(speeds, res.Speedup)
		}
		spread = speeds[0] - speeds[2]
	}
	b.ReportMetric(spread, "LLM1-speedup-spread")
}

// BenchmarkAblationBackfill sweeps the scheduler's backfill window,
// reporting the utilization lost with strict FIFO (window 1).
func BenchmarkAblationBackfill(b *testing.B) {
	mix := sched.ProductionMix()
	var lost float64
	for i := 0; i < b.N; i++ {
		cfg := sched.ReferenceConfig()
		cfg.Duration = 100000
		full, err := sched.Simulate(sched.FullPod(), sched.Reconfigurable{}, mix, cfg)
		if err != nil {
			b.Fatal(err)
		}
		cfg.BackfillWindow = 1
		strict, err := sched.Simulate(sched.FullPod(), sched.Reconfigurable{}, mix, cfg)
		if err != nil {
			b.Fatal(err)
		}
		lost = full.Utilization - strict.Utilization
	}
	b.ReportMetric(100*lost, "utilization-pp-lost-strict-FIFO")
}
