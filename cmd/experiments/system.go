package main

import (
	"fmt"

	"lightwave/internal/avail"
	"lightwave/internal/collective"
	"lightwave/internal/cost"
	"lightwave/internal/dcn"
	"lightwave/internal/mlperf"
	"lightwave/internal/optics"
	"lightwave/internal/superpod"
)

// table1 prints the pod fabric cost/power comparison.
func table1() {
	fmt.Printf("%-20s %-14s %-14s\n", "Fabric", "RelativeCost", "RelativePower")
	for _, r := range cost.Table1() {
		fmt.Printf("%-20s %-14.2f %-14.2f\n", r.Fabric, r.RelativeCost, r.RelativePower)
	}
	fmt.Printf("paper: DCN 1.24/1.10, Lightwave 1.06/1.01, Static 1/1\n")
	fmt.Printf("lightwave fabric premium over static: %.1f%% of system cost (paper: <6%%)\n",
		100*cost.IncrementalFabricShare())
}

// table2 prints the LLM slice-shape optimization results.
func table2() {
	results, err := mlperf.Table2(mlperf.DefaultSystem())
	if err != nil {
		panic(err)
	}
	fmt.Printf("%-6s %-10s %-14s %-10s\n", "Model", "Params", "OptimalShape", "Speedup")
	for _, r := range results {
		fmt.Printf("%-6s %-10s %-14s %-10s\n",
			r.Model.Name, fmt.Sprintf("%.0fB", r.Model.Params/1e9),
			r.Best.Shape.String(), fmt.Sprintf("%.2fx", r.Speedup))
	}
	fmt.Println("paper: LLM0 8x16x32 1.54x, LLM1 4x4x256 3.32x, LLM2 16x16x16 1x")
}

// fig15a prints fabric availability versus per-OCS availability for the
// three transceiver options.
func fig15a() {
	options := []struct {
		gen string
	}{{"200G-CWDM4"}, {"2x200G-bidi-CWDM4"}, {"800G-bidi-CWDM8"}}
	fmt.Printf("%-12s", "OCS avail")
	counts := make([]int, len(options))
	for i, o := range options {
		g, err := optics.GenerationByName(o.gen)
		if err != nil {
			panic(err)
		}
		n, err := avail.OCSCount(g)
		if err != nil {
			panic(err)
		}
		counts[i] = n
		fmt.Printf(" %20s", fmt.Sprintf("%s(%d OCS)", g.Grid.Name+map[bool]string{true: "-bidi", false: "-dup"}[g.Bidi], n))
	}
	fmt.Println()
	for _, a := range []float64{0.995, 0.997, 0.999, 0.9995, 0.9999} {
		fmt.Printf("%-12.4f", a)
		for _, n := range counts {
			fmt.Printf(" %20.3f", avail.FabricAvailability(a, n))
		}
		fmt.Println()
	}
	fmt.Println("paper at 0.999: duplex 90%, CWDM4 bidi 95%, CWDM8 bidi 98%")
}

// fig15b prints goodput versus slice size for static and reconfigurable
// fabrics at three server availabilities.
func fig15b() {
	avails := []float64{0.99, 0.995, 0.999}
	ks := []int{1, 2, 4, 8, 16, 32}
	pts := avail.GoodputSurface(avails, ks)
	// Row-major (avail, k) grid → index a*len(ks)+i.
	fmt.Printf("%-12s %-8s", "slice(TPUs)", "cubes")
	for _, a := range avails {
		fmt.Printf(" %10s %10s", fmt.Sprintf("st@%.3f", a), fmt.Sprintf("re@%.3f", a))
	}
	fmt.Println()
	for i, k := range ks {
		fmt.Printf("%-12d %-8d", k*64, k)
		for ai := range avails {
			pt := pts[ai*len(ks)+i]
			fmt.Printf(" %10.2f %10.2f", pt.Static, pt.Reconfigurable)
		}
		fmt.Println()
	}
	fmt.Println("paper at 99.9%, 1024-TPU slice: static 25%, reconfigurable 75%; 2048: 50% for all")
}

// dcnExperiment prints the spine-free savings and the topology-engineering
// flow-level comparison.
func dcnExperiment() {
	capex, power := cost.DefaultDCN().DCNSavings()
	fmt.Printf("spine-free DCN: capex savings %.1f%% (paper ≈30%%), power savings %.1f%% (paper ≈41%%)\n",
		100*capex, 100*power)
	cmp, err := dcn.CompareTopologies(dcn.ReferenceExperiment())
	if err != nil {
		panic(err)
	}
	fmt.Printf("topology engineering vs uniform mesh (skewed long-lived TM):\n")
	fmt.Printf("  mean FCT improvement: %.1f%% (paper ≈10%%)\n", 100*cmp.FCTImprovement)
	fmt.Printf("  saturation throughput gain: %.1f%% (paper ≈30%% TCP throughput)\n", 100*cmp.ThroughputGain)
	fmt.Printf("  uniform %.2f Tbps vs engineered %.2f Tbps delivered\n",
		cmp.UniformBps/1e12, cmp.EngineeredBps/1e12)
}

// deployExperiment prints the OCS counts per transceiver option and the
// bidi cost savings.
func deployExperiment() {
	for _, name := range []string{"200G-CWDM4", "2x200G-bidi-CWDM4", "800G-bidi-CWDM8"} {
		g, err := optics.GenerationByName(name)
		if err != nil {
			panic(err)
		}
		n, err := avail.OCSCount(g)
		if err != nil {
			panic(err)
		}
		fmt.Printf("%-20s -> %d OCSes\n", name, n)
	}
	fmt.Printf("bidi OCS+fiber plant savings: %.0f%% (paper: 50%%)\n", 100*cost.OCSSavingsFromBidi())
}

// schedExperiment reproduces the §4.2.4 utilization comparison live: the
// same deterministic job/fault stream replayed under all three placement
// policies, each against real core.Fabric pods behind a fleet.Manager
// (failures injected through the chaos seams, slices realized by the
// reconciler). The defrag experiment runs the same scheduler offline
// (sched.Simulate, no cluster behind it); this one exercises the full
// control plane.
func schedExperiment() {
	rep, err := superpod.Evaluate(superpod.EvalConfig{
		Pods:                2,
		CubesPerPod:         64,
		HorizonSeconds:      12000,
		WarmupSeconds:       2000,
		CubeMTBF:            200000, // a few cube failures per pod over the run
		MeanRepairSeconds:   1800,
		PodLossAtSeconds:    5000,
		PodRestoreAtSeconds: 6000,
		Seed:                5,
	})
	if err != nil {
		panic(err)
	}
	fmt.Print(rep.Text())
	reconf, contig := rep.Policies[0], rep.Policies[1]
	fmt.Printf("reconfigurable fleet utilization: %.1f%% (paper: >98%%)\n", 100*reconf.Stats.Utilization)
	if reconf.Stats.Utilization <= 0.98 {
		panic(fmt.Sprintf("reconfigurable utilization %.4f not above the paper's 0.98", reconf.Stats.Utilization))
	}
	if reconf.Stats.Utilization <= contig.Stats.Utilization {
		panic(fmt.Sprintf("reconfigurable %.4f not above contiguous %.4f",
			reconf.Stats.Utilization, contig.Stats.Utilization))
	}
}

// fig2Experiment prints the hybrid ICI-DCN collective timing, including a
// contended-DCN scenario (the inter-pod paths shared with other traffic)
// where the cross-pod phase dominates — the situation §2.2.2 describes as
// "still on the critical path" and the motivation for co-optimizing DCN
// topology with job placement.
func fig2Experiment() {
	dedicated := collective.DCNLink()
	contended := collective.Link{BandwidthBps: dedicated.BandwidthBps / 16, LatencySec: dedicated.LatencySec}
	for _, sc := range []struct {
		name string
		link collective.Link
	}{{"dedicated DCN paths", dedicated}, {"contended DCN (1/16 share)", contended}} {
		h := collective.Hierarchical{
			Pods:     4,
			PodTorus: collective.Torus{Dims: []int{16, 16, 16}, Link: collective.ICILink()},
			DCN:      sc.link,
		}
		fmt.Printf("%s:\n", sc.name)
		for _, mb := range []float64{64, 256, 1024} {
			s := mb * 1e6
			t, err := h.AllReduceTime(s)
			if err != nil {
				panic(err)
			}
			f, _ := h.DCNFraction(s)
			fmt.Printf("  all-reduce %5.0f MB/chip across 4 pods: %6.1f ms (%4.1f%% on DCN)\n",
				mb, 1e3*t, 100*f)
		}
		sp, _ := h.SpeedupFromDCNTE(256e6, 4)
		fmt.Printf("  4x inter-pod trunks via DCN topology engineering -> %.2fx end-to-end speedup\n", sp)
	}
}

// tableC1 prints the OCS technology comparison.
func tableC1() {
	fmt.Printf("%-14s %-8s %-10s %-12s %-10s %-8s\n",
		"Technology", "Cost", "Ports", "Switching", "Loss(dB)", "Latching")
	for _, t := range cost.Technologies() {
		fmt.Printf("%-14s %-8s %-10d %-12.2g %-10.1f %-8v\n",
			t.Name, t.RelativeCost, t.MaxPortCount, t.SwitchingTime, t.InsertionLossDB, t.Latching)
	}
	sel := cost.SelectTechnology(cost.SuperpodRequirement())
	if len(sel) > 0 {
		fmt.Printf("selected for the superpod requirement: %s (paper: MEMS)\n", sel[0].Name)
	}
}
