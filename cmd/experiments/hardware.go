package main

import (
	"fmt"
	"math"
	"strings"

	"lightwave/internal/dsp"
	"lightwave/internal/fec"
	"lightwave/internal/ocs"
	"lightwave/internal/sim"
)

// fig10a samples all cross-connections of one Palomar OCS and prints the
// insertion-loss histogram (paper: typically <2 dB with a splice/connector
// tail).
func fig10a() {
	sw, err := ocs.New(ocs.DefaultConfig())
	if err != nil {
		panic(err)
	}
	h := sim.NewHistogram(0.5, 3.5, 24)
	var s sim.Summary
	for a := 0; a < sw.Radix(); a++ {
		for b := 0; b < sw.Radix(); b++ {
			l := sw.IntrinsicLossDB(ocs.PortID(a), ocs.PortID(b))
			h.Add(l)
			s.Add(l)
		}
	}
	fmt.Printf("connections=%d mean=%.2f dB min=%.2f max=%.2f\n", s.N(), s.Mean(), s.Min(), s.Max())
	peak := 0
	for i := range h.Counts {
		if h.Counts[i] > h.Counts[peak] {
			peak = i
		}
	}
	for i := range h.Counts {
		bar := strings.Repeat("#", h.Counts[i]*50/(h.Counts[peak]+1))
		fmt.Printf("%5.2f dB |%-50s %5.1f%%\n", h.BinCenter(i), bar, 100*h.Fraction(i))
	}
	over2 := 0
	for a := 0; a < sw.Radix(); a++ {
		for b := 0; b < sw.Radix(); b++ {
			if sw.IntrinsicLossDB(ocs.PortID(a), ocs.PortID(b)) > 2 {
				over2++
			}
		}
	}
	fmt.Printf("paths over 2 dB: %.1f%% (paper: 'typically less than 2dB')\n",
		100*float64(over2)/float64(s.N()))
}

// fig10b prints the per-port return loss (paper: typically −46 dB, spec
// < −38 dB).
func fig10b() {
	sw, err := ocs.New(ocs.DefaultConfig())
	if err != nil {
		panic(err)
	}
	var s sim.Summary
	worst := -200.0
	for p := 0; p < sw.Radix(); p++ {
		rl, _ := sw.ReturnLossDB(ocs.PortID(p))
		s.Add(rl)
		if rl > worst {
			worst = rl
		}
		if p%17 == 0 {
			fmt.Printf("port %3d: %.1f dB\n", p, rl)
		}
	}
	fmt.Printf("mean=%.1f dB worst=%.1f dB spec=-38 dB (all ports %v)\n",
		s.Mean(), worst, worst < -38)
}

// fig11a prints the analytic BER curves for several MPI levels with and
// without OIM, plus the sensitivity gain at the KP4 threshold.
func fig11a() {
	r := dsp.DefaultReceiver()
	mpis := []float64{dsp.NoMPI, -35, -32, -29}
	fmt.Printf("%-10s", "P(dBm)")
	for _, m := range mpis {
		label := "clean"
		if m > dsp.NoMPI {
			label = fmt.Sprintf("%gdB", m)
		}
		fmt.Printf(" %12s %12s", label+"/raw", label+"/OIM")
	}
	fmt.Println()
	for p := -13.0; p <= -5; p += 1 {
		fmt.Printf("%-10.1f", p)
		for _, m := range mpis {
			raw := r.BER(p, dsp.MPICondition{MPIDB: m})
			oim := r.BER(p, dsp.MPICondition{MPIDB: m, OIM: true})
			fmt.Printf(" %12.3e %12.3e", raw, oim)
		}
		fmt.Println()
	}
	for _, m := range []float64{-35, -32, -29} {
		raw, err1 := r.Sensitivity(fec.KP4Threshold, dsp.MPICondition{MPIDB: m})
		oim, err2 := r.Sensitivity(fec.KP4Threshold, dsp.MPICondition{MPIDB: m, OIM: true})
		if err1 != nil || err2 != nil {
			fmt.Printf("MPI %g dB: KP4 threshold unreachable without OIM\n", m)
			continue
		}
		fmt.Printf("MPI %g dB: OIM sensitivity gain at 2e-4 = %.2f dB (paper: >1 dB at -32)\n", m, raw-oim)
	}
}

// fig11b compares waveform Monte-Carlo measurements with the analytic
// model (paper: "measured data ... matches well with the modeling
// results").
func fig11b() {
	r := dsp.DefaultReceiver()
	fmt.Printf("%-8s %-8s %12s %12s %8s\n", "P(dBm)", "MPI(dB)", "analytic", "montecarlo", "ratio")
	for _, c := range []struct {
		p, mpi float64
		oim    bool
	}{
		{-12, dsp.NoMPI, false},
		{-11, -32, false},
		{-11, -29, false},
		{-10, -27, true},
	} {
		cond := dsp.MPICondition{MPIDB: c.mpi, OIM: c.oim}
		an := r.BER(c.p, cond)
		mc := r.MonteCarloBER(c.p, cond, dsp.MonteCarloConfig{Symbols: 300000, Rand: sim.NewRand(42)})
		fmt.Printf("%-8.1f %-8.1f %12.3e %12.3e %8.2f\n", c.p, c.mpi, an, mc.BER, mc.BER/an)
	}
}

// fig12 prints the receiver-sensitivity improvement from the concatenated
// soft-decision FEC (paper: 1.6 dB / 45% at the KP4 threshold, MPI −32 dB).
func fig12() {
	r := dsp.DefaultReceiver()
	inner := fec.DefaultInner()
	for _, mpi := range []float64{dsp.NoMPI, -32} {
		cond := dsp.MPICondition{MPIDB: mpi}
		// Without the inner code: power where pre-FEC BER hits the KP4
		// threshold.
		without, err := r.Sensitivity(fec.KP4Threshold, cond)
		if err != nil {
			fmt.Printf("MPI %.0f dB: threshold unreachable\n", mpi)
			continue
		}
		// With the inner code: power where the inner decoder's output hits
		// the KP4 threshold.
		with, err := r.SensitivityThrough(fec.KP4Threshold, cond, inner.Transfer)
		if err != nil {
			panic(err)
		}
		gain := without - with
		// The paper quotes the relative power improvement 10^(gain/10)−1
		// (1.6 dB ↔ 45%).
		pct := 100 * (math.Pow(10, gain/10) - 1)
		label := "clean"
		if mpi > dsp.NoMPI {
			label = fmt.Sprintf("MPI %.0f dB", mpi)
		}
		fmt.Printf("%-12s sensitivity: KP4-only %.2f dBm, +inner SFEC %.2f dBm, gain %.2f dB (%.0f%%)\n",
			label, without, with, gain, pct)
	}
	fmt.Println("paper: 1.6 dB (45%) at MPI -32 dB")
}

// fig13 samples the fleet: per-lane BER of every receiving port of a
// 64-cube pod (6144 ports). Installed links are budgeted to run with a
// small designed margin over receiver sensitivity once end-of-life
// allocations (aging, repair splices, temperature) are spent, so the
// observed per-lane BER sits around 1e-6 — "approximately two orders of
// magnitude of BER margin" below the 2e-4 KP4 threshold.
func fig13() {
	rx := dsp.DefaultReceiver()
	clean := dsp.MPICondition{MPIDB: dsp.NoMPI}
	sens, err := rx.Sensitivity(fec.KP4Threshold, clean)
	if err != nil {
		panic(err)
	}
	// 64 cubes × 96 link endpoints = 6144 receiving ports, each with its
	// own residual link margin and MPI level; the sampler shards the fleet
	// across the worker pool.
	cfg := dsp.DefaultFleetBERConfig()
	cfg.SensitivityDBm = sens
	res := rx.FleetBER(cfg)
	var s sim.Summary
	for _, ber := range res.BERs {
		s.Add(math.Log10(ber))
	}
	over := res.OverThreshold(fec.KP4Threshold)
	fmt.Printf("ports=%d  median log10(BER)=%.2f  worst BER=%.2e  KP4 threshold=2.0e-04\n",
		len(res.BERs), s.Mean(), res.Worst)
	fmt.Printf("ports above threshold: %d; worst-case margin below threshold: %.1f decades (paper: ≈2)\n",
		over, math.Log10(fec.KP4Threshold/res.Worst))
}
