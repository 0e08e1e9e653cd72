package figures

import (
	"errors"
	"fmt"
	"io"

	"lightwave/internal/avail"
	"lightwave/internal/collective"
	"lightwave/internal/cost"
	"lightwave/internal/dcn"
	"lightwave/internal/mlperf"
	"lightwave/internal/optics"
	"lightwave/internal/superpod"
)

// table1 prints the pod fabric cost/power comparison.
func table1(w io.Writer) ([]Row, error) {
	fmt.Fprintf(w, "%-20s %-14s %-14s\n", "Fabric", "RelativeCost", "RelativePower")
	t := cost.Table1()
	for _, r := range t {
		fmt.Fprintf(w, "%-20s %-14.2f %-14.2f\n", r.Fabric, r.RelativeCost, r.RelativePower)
	}
	fmt.Fprintf(w, "paper: DCN 1.24/1.10, Lightwave 1.06/1.01, Static 1/1\n")
	fmt.Fprintf(w, "lightwave fabric premium over static: %.1f%% of system cost (paper: <6%%)\n",
		100*cost.IncrementalFabricShare())
	paper := []struct {
		key         string
		cost, power float64
	}{{"DCN", 1.24, 1.10}, {"lightwave", 1.06, 1.01}, {"static", 1, 1}}
	if len(t) != len(paper) {
		return nil, fmt.Errorf("%d fabrics, want %d", len(t), len(paper))
	}
	var rows []Row
	for i, p := range paper {
		rows = append(rows,
			near(p.key+"-relative-cost", t[i].Fabric+" relative cost", fmt.Sprintf("%.2fx", p.cost), t[i].RelativeCost, p.cost, 0.005),
			near(p.key+"-relative-power", t[i].Fabric+" relative power", fmt.Sprintf("%.2fx", p.power), t[i].RelativePower, p.power, 0.005))
	}
	return rows, nil
}

// table2 prints the LLM slice-shape optimization results.
func table2(w io.Writer) ([]Row, error) {
	results, err := mlperf.Table2(mlperf.DefaultSystem())
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "%-6s %-10s %-14s %-10s\n", "Model", "Params", "OptimalShape", "Speedup")
	for _, r := range results {
		fmt.Fprintf(w, "%-6s %-10s %-14s %-10s\n",
			r.Model.Name, fmt.Sprintf("%.0fB", r.Model.Params/1e9),
			r.Best.Shape.String(), fmt.Sprintf("%.2fx", r.Speedup))
	}
	fmt.Fprintln(w, "paper: LLM0 8x16x32 1.54x, LLM1 4x4x256 3.32x, LLM2 16x16x16 1x")
	paper := []struct {
		shape   string
		speedup float64
	}{{"8x16x32", 1.54}, {"4x4x256", 3.32}, {"16x16x16", 1}}
	if len(results) != len(paper) {
		return nil, fmt.Errorf("%d models, want %d", len(results), len(paper))
	}
	var rows []Row
	for i, p := range paper {
		r := results[i]
		rows = append(rows,
			match(r.Model.Name+"-shape-is-paper", r.Model.Name+" optimal slice shape", p.shape, r.Best.Shape.String()),
			near(r.Model.Name+"-speedup", r.Model.Name+" speedup over 16x16x16", fmt.Sprintf("%.2fx", p.speedup), r.Speedup, p.speedup, 0.005))
	}
	return rows, nil
}

// fig15a prints fabric availability versus per-OCS availability for the
// three transceiver options.
func fig15a(w io.Writer) ([]Row, error) {
	options := []struct {
		gen, key string
	}{
		{"200G-CWDM4", "fabric-avail-96OCS@0.999"},
		{"2x200G-bidi-CWDM4", "fabric-avail-48OCS@0.999"},
		{"800G-bidi-CWDM8", "fabric-avail-24OCS@0.999"},
	}
	fmt.Fprintf(w, "%-12s", "OCS avail")
	counts := make([]int, len(options))
	for i, o := range options {
		g, err := optics.GenerationByName(o.gen)
		if err != nil {
			return nil, err
		}
		n, err := avail.OCSCount(g)
		if err != nil {
			return nil, err
		}
		counts[i] = n
		fmt.Fprintf(w, " %20s", fmt.Sprintf("%s(%d OCS)", g.Grid.Name+map[bool]string{true: "-bidi", false: "-dup"}[g.Bidi], n))
	}
	fmt.Fprintln(w)
	for _, a := range []float64{0.995, 0.997, 0.999, 0.9995, 0.9999} {
		fmt.Fprintf(w, "%-12.4f", a)
		for _, n := range counts {
			fmt.Fprintf(w, " %20.3f", avail.FabricAvailability(a, n))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "paper at 0.999: duplex 90%, CWDM4 bidi 95%, CWDM8 bidi 98%")
	at := func(i int) float64 { return avail.FabricAvailability(0.999, counts[i]) }
	return []Row{
		near(options[0].key, "fabric availability, CWDM4 duplex, OCS at 0.999", "90%", at(0), 0.908, 0.001),
		near(options[1].key, "fabric availability, CWDM4 bidi, OCS at 0.999", "95%", at(1), 0.953, 0.001),
		deviation(options[2].key, "fabric availability, CWDM8 bidi, OCS at 0.999", "98%", at(2), 0.976, 0.001),
	}, nil
}

// fig15b prints goodput versus slice size for static and reconfigurable
// fabrics at three server availabilities.
func fig15b(w io.Writer) ([]Row, error) {
	avails := []float64{0.99, 0.995, 0.999}
	ks := []int{1, 2, 4, 8, 16, 32}
	pts := avail.GoodputSurface(avails, ks)
	// Row-major (avail, k) grid → index a*len(ks)+i.
	fmt.Fprintf(w, "%-12s %-8s", "slice(TPUs)", "cubes")
	for _, a := range avails {
		fmt.Fprintf(w, " %10s %10s", fmt.Sprintf("st@%.3f", a), fmt.Sprintf("re@%.3f", a))
	}
	fmt.Fprintln(w)
	for i, k := range ks {
		fmt.Fprintf(w, "%-12d %-8d", k*64, k)
		for ai := range avails {
			pt := pts[ai*len(ks)+i]
			fmt.Fprintf(w, " %10.2f %10.2f", pt.Static, pt.Reconfigurable)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "paper at 99.9%, 1024-TPU slice: static 25%, reconfigurable 75%; 2048: 50% for all")
	at999 := pts[2*len(ks):]
	return []Row{
		near("static-goodput-1024@99.9", "static goodput, 1024-TPU slice, server avail 99.9%", "25%", at999[4].Static, 0.25, 0.005),
		near("goodput-1024@99.9", "reconfigurable goodput, 1024-TPU slice, server avail 99.9%", "75%", at999[4].Reconfigurable, 0.75, 0.005),
		near("goodput-2048@99.9", "reconfigurable goodput, 2048-TPU slice, server avail 99.9%", "50%", at999[5].Reconfigurable, 0.50, 0.005),
	}, nil
}

// dcnExperiment prints the spine-free savings and the topology-engineering
// flow-level comparison.
func dcnExperiment(w io.Writer) ([]Row, error) {
	capex, power := cost.DCNSavings()
	fmt.Fprintf(w, "spine-free DCN: capex savings %.1f%% (paper ≈30%%), power savings %.1f%% (paper ≈41%%)\n",
		100*capex, 100*power)
	cmp, err := dcn.CompareTopologies(dcn.ReferenceExperiment())
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "topology engineering vs uniform mesh (skewed long-lived TM):\n")
	fmt.Fprintf(w, "  mean FCT improvement: %.1f%% (paper ≈10%%)\n", 100*cmp.FCTImprovement)
	fmt.Fprintf(w, "  saturation throughput gain: %.1f%% (paper ≈30%% TCP throughput)\n", 100*cmp.ThroughputGain)
	fmt.Fprintf(w, "  uniform %.2f Tbps vs engineered %.2f Tbps delivered\n",
		cmp.UniformBps/1e12, cmp.EngineeredBps/1e12)
	return []Row{
		near("capex-savings-%", "spine-free DCN capex savings", "≈30%", 100*capex, 29.2, 0.1),
		near("power-savings-%", "spine-free DCN power savings", "≈41%", 100*power, 41.0, 0.1),
		deviation("FCT-improvement-%", "topology engineering mean FCT improvement", "≈10%", 100*cmp.FCTImprovement, 21.9, 0.1),
		near("throughput-gain-%", "topology engineering saturation throughput gain", "≈30%", 100*cmp.ThroughputGain, 28.5, 0.1),
	}, nil
}

// deployExperiment prints the OCS counts per transceiver option and the
// bidi cost savings.
func deployExperiment(w io.Writer) ([]Row, error) {
	var rows []Row
	for _, o := range []struct {
		name string
		ocs  int
	}{{"200G-CWDM4", 96}, {"2x200G-bidi-CWDM4", 48}, {"800G-bidi-CWDM8", 24}} {
		g, err := optics.GenerationByName(o.name)
		if err != nil {
			return nil, err
		}
		n, err := avail.OCSCount(g)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(w, "%-20s -> %d OCSes\n", o.name, n)
		rows = append(rows, near("OCSes-"+o.name, "OCSes per pod with "+o.name, fmt.Sprint(o.ocs), float64(n), float64(o.ocs), 0))
	}
	savings := 100 * cost.OCSSavingsFromBidi()
	fmt.Fprintf(w, "bidi OCS+fiber plant savings: %.0f%% (paper: 50%%)\n", savings)
	return append(rows, near("bidi-OCS-savings-%", "bidi OCS+fiber plant savings", "50%", savings, 50, 0.5)), nil
}

// schedExperiment reproduces the §4.2.4 utilization comparison live: the
// same deterministic job/fault stream replayed under all three placement
// policies, each against real core.Fabric pods behind a fleet.Manager
// (failures injected through the chaos seams, slices realized by the
// reconciler). The defrag experiment runs the same scheduler offline
// (sched.Simulate, no cluster behind it); this one exercises the full
// control plane.
func schedExperiment(w io.Writer) ([]Row, error) {
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
		return nil, err
	}
	fmt.Fprint(w, rep.Text())
	reconf, contig, defrag := 100*rep.Policies[0].Stats.Utilization, 100*rep.Policies[1].Stats.Utilization, 100*rep.Policies[2].Stats.Utilization
	fmt.Fprintf(w, "reconfigurable fleet utilization: %.1f%% (paper: >98%%)\n", reconf)
	return []Row{
		within("reconf-utilization-%", "reconfigurable fleet utilization", "> 98%", reconf, 98, 100),
		within("reconf-over-contiguous-pp", "reconfigurable − contiguous utilization", "reconfigurable above contiguous", reconf-contig, 0, inf),
		near("contiguous-utilization-%", "contiguous fleet utilization", "lower (unquantified)", contig, 91.3, 0.1),
		near("defrag-utilization-%", "contiguous + defrag fleet utilization", "not reported", defrag, 95.3, 0.1),
	}, nil
}

// fig2Experiment prints the hybrid ICI-DCN collective timing, including a
// contended-DCN scenario (the inter-pod paths shared with other traffic)
// where the cross-pod phase dominates — the situation §2.2.2 describes as
// "still on the critical path" and the motivation for co-optimizing DCN
// topology with job placement.
func fig2Experiment(w io.Writer) ([]Row, error) {
	dedicated := collective.DCNLink()
	contended := collective.Link{BandwidthBps: dedicated.BandwidthBps / 16, LatencySec: dedicated.LatencySec}
	var dedicated256 float64
	for _, sc := range []struct {
		name string
		link collective.Link
	}{{"dedicated DCN paths", dedicated}, {"contended DCN (1/16 share)", contended}} {
		h := collective.Hierarchical{
			Pods:     4,
			PodTorus: collective.Torus{Dims: []int{16, 16, 16}, Link: collective.ICILink()},
			DCN:      sc.link,
		}
		fmt.Fprintf(w, "%s:\n", sc.name)
		for _, mb := range []float64{64, 256, 1024} {
			s := mb * 1e6
			t, err := h.AllReduceTime(s)
			if err != nil {
				return nil, err
			}
			f, _ := h.DCNFraction(s)
			fmt.Fprintf(w, "  all-reduce %5.0f MB/chip across 4 pods: %6.1f ms (%4.1f%% on DCN)\n",
				mb, 1e3*t, 100*f)
			if sc.link == dedicated && mb == 256 {
				dedicated256 = 1e3 * t
			}
		}
		sp, _ := h.SpeedupFromDCNTE(256e6, 4)
		fmt.Fprintf(w, "  4x inter-pod trunks via DCN topology engineering -> %.2fx end-to-end speedup\n", sp)
	}
	return []Row{near("allreduce-ms", "256 MB/chip all-reduce across 4 pods, dedicated DCN", "not quantified", dedicated256, 5.3, 0.1)}, nil
}

// tableC1 prints the OCS technology comparison.
func tableC1(w io.Writer) ([]Row, error) {
	fmt.Fprintf(w, "%-14s %-8s %-10s %-12s %-10s %-8s\n",
		"Technology", "Cost", "Ports", "Switching", "Loss(dB)", "Latching")
	for _, t := range cost.Technologies() {
		fmt.Fprintf(w, "%-14s %-8s %-10d %-12.2g %-10.1f %-8v\n",
			t.Name, t.RelativeCost, t.MaxPortCount, t.SwitchingTime, t.InsertionLossDB, t.Latching)
	}
	sel := cost.SelectTechnology(cost.SuperpodRequirement())
	if len(sel) == 0 {
		return nil, errors.New("no technology meets the superpod requirement")
	}
	fmt.Fprintf(w, "selected for the superpod requirement: %s (paper: MEMS)\n", sel[0].Name)
	return []Row{match("MEMS-selected", "technology selected for the superpod requirement", "MEMS", sel[0].Name)}, nil
}
