package lightwave_test

// One benchmark per table and figure of the paper's evaluation section.
// Each bench regenerates the underlying experiment and reports the headline
// quantity as a custom metric, so `go test -bench=. -benchmem` doubles as
// the reproduction harness (cmd/experiments prints the full rows/series).

import (
	"testing"

	"lightwave/internal/avail"
	"lightwave/internal/collective"
	"lightwave/internal/cost"
	"lightwave/internal/dcn"
	"lightwave/internal/dsp"
	"lightwave/internal/fec"
	"lightwave/internal/mlperf"
	"lightwave/internal/ocs"
	"lightwave/internal/optics"
	"lightwave/internal/sched"
	"lightwave/internal/sim"
	"lightwave/internal/topo"
)

// BenchmarkFig10aInsertionLoss samples all 136×136 cross-connections of a
// Palomar OCS (Fig 10a: typically <2 dB).
func BenchmarkFig10aInsertionLoss(b *testing.B) {
	sw, err := ocs.New(ocs.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	var mean float64
	for i := 0; i < b.N; i++ {
		var s sim.Summary
		for p := 0; p < sw.Radix(); p++ {
			for q := 0; q < sw.Radix(); q++ {
				s.Add(sw.IntrinsicLossDB(ocs.PortID(p), ocs.PortID(q)))
			}
		}
		mean = s.Mean()
	}
	b.ReportMetric(mean, "dB-mean-loss")
}

// BenchmarkFig10bReturnLoss samples the per-port return loss (Fig 10b:
// typically −46 dB, spec < −38 dB).
func BenchmarkFig10bReturnLoss(b *testing.B) {
	sw, err := ocs.New(ocs.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	var mean float64
	for i := 0; i < b.N; i++ {
		var s sim.Summary
		for p := 0; p < sw.Radix(); p++ {
			rl, err := sw.ReturnLossDB(ocs.PortID(p))
			if err != nil {
				b.Fatal(err)
			}
			s.Add(rl)
		}
		mean = s.Mean()
	}
	b.ReportMetric(mean, "dB-mean-return-loss")
}

// BenchmarkFig11aSimulatedBER sweeps the analytic PAM4 BER model across
// received power and MPI conditions (Fig 11a) and reports the OIM
// sensitivity gain at the KP4 threshold for MPI −32 dB (paper: >1 dB).
func BenchmarkFig11aSimulatedBER(b *testing.B) {
	r := dsp.DefaultReceiver()
	var gain float64
	for i := 0; i < b.N; i++ {
		for p := -14.0; p <= -4; p += 0.25 {
			for _, mpi := range []float64{dsp.NoMPI, -35, -32, -29} {
				_ = r.BER(p, dsp.MPICondition{MPIDB: mpi})
				_ = r.BER(p, dsp.MPICondition{MPIDB: mpi, OIM: true})
			}
		}
		raw, err1 := r.Sensitivity(fec.KP4Threshold, dsp.MPICondition{MPIDB: -32})
		oim, err2 := r.Sensitivity(fec.KP4Threshold, dsp.MPICondition{MPIDB: -32, OIM: true})
		if err1 != nil || err2 != nil {
			b.Fatal(err1, err2)
		}
		gain = raw - oim
	}
	b.ReportMetric(gain, "dB-OIM-gain@-32dB")
}

// BenchmarkFig11bMonteCarloBER runs the waveform-level simulation that
// plays the role of the paper's measured curves (Fig 11b).
func BenchmarkFig11bMonteCarloBER(b *testing.B) {
	r := dsp.DefaultReceiver()
	var ber float64
	for i := 0; i < b.N; i++ {
		res := r.MonteCarloBER(-11, dsp.MPICondition{MPIDB: -32},
			dsp.MonteCarloConfig{Symbols: 100000, Rand: sim.NewRand(uint64(i + 1))})
		ber = res.BER
	}
	b.ReportMetric(ber, "measured-BER@-11dBm")
}

// BenchmarkFig12ConcatenatedFEC measures the sensitivity improvement of
// the inner soft-decision code over bare KP4 (Fig 12: 1.6 dB at 2e-4).
func BenchmarkFig12ConcatenatedFEC(b *testing.B) {
	r := dsp.DefaultReceiver()
	inner := fec.DefaultInner()
	clean := dsp.MPICondition{MPIDB: dsp.NoMPI}
	var gain float64
	for i := 0; i < b.N; i++ {
		without, err := r.Sensitivity(fec.KP4Threshold, clean)
		if err != nil {
			b.Fatal(err)
		}
		with, err := r.SensitivityThrough(fec.KP4Threshold, clean, inner.Transfer)
		if err != nil {
			b.Fatal(err)
		}
		gain = without - with
	}
	b.ReportMetric(gain, "dB-SFEC-gain")
}

// BenchmarkFig13FleetBER samples the per-lane BER of all 6144 receiving
// ports of a pod (Fig 13: everything under 2e-4 with ≈2 decades margin).
// The sampler fans out across GOMAXPROCS workers deterministically.
func BenchmarkFig13FleetBER(b *testing.B) {
	r := dsp.DefaultReceiver()
	sens, err := r.Sensitivity(fec.KP4Threshold, dsp.MPICondition{MPIDB: dsp.NoMPI})
	if err != nil {
		b.Fatal(err)
	}
	cfg := dsp.DefaultFleetBERConfig()
	cfg.SensitivityDBm = sens
	var worst float64
	for i := 0; i < b.N; i++ {
		worst = r.FleetBER(cfg).Worst
	}
	b.ReportMetric(worst, "worst-fleet-BER")
}

// BenchmarkTable1CostPower rebuilds the three pod fabric BOMs (Table 1).
func BenchmarkTable1CostPower(b *testing.B) {
	var lightwaveCost float64
	for i := 0; i < b.N; i++ {
		rows := cost.Table1()
		lightwaveCost = rows[1].RelativeCost
	}
	b.ReportMetric(lightwaveCost, "lightwave-relative-cost")
}

// BenchmarkTable2LLMSpeedup runs the slice-shape optimizer for the three
// LLM workloads (Table 2).
func BenchmarkTable2LLMSpeedup(b *testing.B) {
	sys := mlperf.DefaultSystem()
	var llm1 float64
	for i := 0; i < b.N; i++ {
		results, err := mlperf.Table2(sys)
		if err != nil {
			b.Fatal(err)
		}
		llm1 = results[1].Speedup
	}
	b.ReportMetric(llm1, "LLM1-speedup")
}

// BenchmarkFig15aFabricAvailability sweeps fabric availability vs per-OCS
// availability for the 96/48/24-OCS designs (Fig 15a).
func BenchmarkFig15aFabricAvailability(b *testing.B) {
	var bidi float64
	for i := 0; i < b.N; i++ {
		for _, n := range []int{96, 48, 24} {
			for a := 0.995; a <= 0.9999; a += 0.0001 {
				_ = avail.FabricAvailability(a, n)
			}
		}
		bidi = avail.FabricAvailability(0.999, 48)
	}
	b.ReportMetric(bidi, "fabric-avail-48OCS@0.999")
}

// BenchmarkFig15bGoodput computes the goodput-vs-slice-size family of
// curves (Fig 15b), cross-validated by Monte Carlo. The grid fans out on
// the internal/par worker pool.
func BenchmarkFig15bGoodput(b *testing.B) {
	avails := []float64{0.99, 0.995, 0.999}
	ks := []int{1, 2, 4, 8, 16, 32}
	var reconf1024 float64
	for i := 0; i < b.N; i++ {
		pts := avail.GoodputSurface(avails, ks)
		for _, pt := range pts {
			if pt.ServerAvail == 0.999 && pt.SliceCubes == 16 {
				reconf1024 = pt.Reconfigurable
			}
		}
	}
	b.ReportMetric(reconf1024, "goodput-1024@99.9")
}

// BenchmarkDCNSpineFree rebuilds the spine-full vs spine-free DCN BOMs
// (§4.2 summary: ≈30% capex, ≈41% power savings).
func BenchmarkDCNSpineFree(b *testing.B) {
	p := cost.DefaultDCN()
	var capex float64
	for i := 0; i < b.N; i++ {
		c, _ := p.DCNSavings()
		capex = c
	}
	b.ReportMetric(100*capex, "capex-savings-%")
}

// BenchmarkDCNTopologyEngineering runs the engineered-vs-uniform flow-level
// comparison (§4.2 summary: ≈10% FCT, ≈30% throughput). This is the
// heaviest bench; it runs the full reference experiment once per iteration.
func BenchmarkDCNTopologyEngineering(b *testing.B) {
	var gain float64
	for i := 0; i < b.N; i++ {
		cmp, err := dcn.CompareTopologies(dcn.ReferenceExperiment())
		if err != nil {
			b.Fatal(err)
		}
		gain = cmp.ThroughputGain
	}
	b.ReportMetric(100*gain, "throughput-gain-%")
}

// BenchmarkDeploymentModularity computes the OCS counts per transceiver
// option and the bidi savings (§4.2.3).
func BenchmarkDeploymentModularity(b *testing.B) {
	gens := []string{"200G-CWDM4", "2x200G-bidi-CWDM4", "800G-bidi-CWDM8"}
	var savings float64
	for i := 0; i < b.N; i++ {
		for _, g := range gens {
			gen, err := optics.GenerationByName(g)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := avail.OCSCount(gen); err != nil {
				b.Fatal(err)
			}
		}
		savings = cost.OCSSavingsFromBidi()
	}
	b.ReportMetric(100*savings, "bidi-OCS-savings-%")
}

// BenchmarkSchedulerUtilization runs the reconfigurable side of the
// scheduling comparison (§4.2.4: >98% utilization).
func BenchmarkSchedulerUtilization(b *testing.B) {
	var util float64
	for i := 0; i < b.N; i++ {
		reconf, err := sched.Simulate(sched.FullPod(), sched.Reconfigurable{}, sched.ProductionMix(), sched.ReferenceConfig())
		if err != nil {
			b.Fatal(err)
		}
		util = reconf.Utilization
	}
	b.ReportMetric(100*util, "reconf-utilization-%")
}

// BenchmarkFig2HybridCollective times the hierarchical ICI-DCN all-reduce
// across four superpods (Fig 2).
func BenchmarkFig2HybridCollective(b *testing.B) {
	h := collective.Hierarchical{
		Pods:     4,
		PodTorus: collective.Torus{Dims: []int{16, 16, 16}, Link: collective.ICILink()},
		DCN:      collective.DCNLink(),
	}
	var t float64
	for i := 0; i < b.N; i++ {
		var err error
		t, err = h.AllReduceTime(256e6)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(1e3*t, "allreduce-ms")
}

// BenchmarkTableC1Technologies evaluates the OCS technology selection
// (Table C.1: MEMS wins for the superpod requirement).
func BenchmarkTableC1Technologies(b *testing.B) {
	var picked string
	for i := 0; i < b.N; i++ {
		sel := cost.SelectTechnology(cost.SuperpodRequirement())
		if len(sel) == 0 {
			b.Fatal("no technology selected")
		}
		picked = sel[0].Name
	}
	if picked != "MEMS" {
		b.Fatalf("selected %s", picked)
	}
}

// BenchmarkComposeFullPod measures the control plane composing a full
// 4096-chip slice (3072 circuits across 48 OCSes) — the end-to-end cost of
// a pod-scale reconfiguration.
func BenchmarkComposeFullPod(b *testing.B) {
	cubes := make([]int, 64)
	for i := range cubes {
		cubes[i] = i
	}
	for i := 0; i < b.N; i++ {
		fab := newBenchFabric(b)
		if _, err := fab.ComposeSlice("big", topo.Shape{X: 16, Y: 16, Z: 16}, cubes); err != nil {
			b.Fatal(err)
		}
	}
}
