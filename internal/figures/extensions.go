package figures

import (
	"fmt"
	"io"

	"lightwave/internal/dcn"
	"lightwave/internal/dsp"
	"lightwave/internal/mlperf"
	"lightwave/internal/ocs"
	"lightwave/internal/optics"
	"lightwave/internal/sched"
	"lightwave/internal/sim"
	"lightwave/internal/topo"
)

// reliabilityExperiment reproduces the §4.1.1 field-availability claim with
// the lifetime simulation.
func reliabilityExperiment(w io.Writer) ([]Row, error) {
	p := ocs.DefaultReliability()
	av, err := ocs.FleetAvailability(p, 10, 60, sim.NewRand(1))
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "fleet of 60 chassis, 10-year lifetimes: mean availability %.4f%%\n", 100*av)
	fmt.Fprintln(w, "paper: 'greater than 99.98% availability in the field'")
	rep, err := ocs.SimulateLifetime(p, 20, sim.NewRand(2))
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "one 20-year chassis: downtime %.1f h, %d FRU replacements, %d driver-board failures, %d mirror failures, %d ports lost\n",
		rep.DowntimeHours, rep.FRUReplaced, rep.DriverFailures, rep.MirrorFailures, rep.PortsLost)
	return []Row{within("field-availability-%", "OCS fleet mean availability", "> 99.98%", 100*av, 99.98, 100)}, nil
}

// circulatorExperiment runs the Appendix B Jones-calculus physics.
func circulatorExperiment(w io.Writer) ([]Row, error) {
	core := optics.NewCirculatorCore()
	toPort2, leakFwd := core.RouteForward(optics.Jones{P: 1})
	fmt.Fprintf(w, "port 1→2 (Tx launch): %.4f transmitted, %.2g leaked\n", toPort2, leakFwd)
	toPort3, back := core.RouteBackward(optics.Jones{S: complex(0.6, 0.2), P: complex(0.3, 0.7)})
	total := toPort3 + back
	fmt.Fprintf(w, "port 2→3 (fiber return, random polarization): %.4f to receiver, %.2g back into laser\n",
		toPort3/total, back/total)
	var rows []Row
	for _, c := range []struct {
		key           string
		errRad, isoDB float64
	}{
		{"dB-isolation@0.005rad", 0.005, 46.0},
		{"dB-isolation@0.02rad", 0.02, 34.0},
		{"dB-isolation@0.05rad", 0.05, 26.0},
	} {
		iso := optics.CirculatorIsolationDB(c.errRad)
		fmt.Fprintf(w, "Faraday rotation error %.3f rad -> isolation %.1f dB\n", c.errRad, iso)
		rows = append(rows, deviation(c.key, fmt.Sprintf("port 2→1 isolation at a %g rad Faraday rotation error", c.errRad),
			"not quantified", iso, c.isoDB, 0.05))
	}
	fmt.Fprintln(w, "Appendix B: forward polarization preserved; return rotated 90° to port 3")
	return rows, nil
}

// wdmExperiment prints per-lane budgets for the CWDM8 module, showing the
// band-edge dispersion penalty the MLSE equalizer targets.
func wdmExperiment(w io.Writer) ([]Row, error) {
	gen, err := optics.GenerationByName("800G-bidi-CWDM8")
	if err != nil {
		return nil, err
	}
	a, b := optics.NewTransceiver(gen), optics.NewTransceiver(gen)
	// 1 km pod-scale reach: the band-edge lanes lose most of their margin
	// to dispersion and the MLSE equalizer recovers it (§3.3.1).
	link := optics.NewBidiLink(a, b, optics.DefaultCirculator(), 1.8, -46, 1.0)
	lanes, err := optics.WDMBudget(link, a, optics.NewMux(gen.Grid))
	if err != nil {
		return nil, err
	}
	eq := dsp.DefaultEqualizer()
	fmt.Fprintf(w, "%-6s %-8s %-9s %-12s %-11s %-12s\n",
		"lane", "λ(nm)", "Rx(dBm)", "dispPen(dB)", "margin(dB)", "eq-margin(dB)")
	for _, l := range lanes {
		eqMargin := l.MarginDB + l.DispersionPenaltyDB - eq.ResidualPenaltyDB(l.DispersionPenaltyDB)
		fmt.Fprintf(w, "%-6d %-8.0f %-9.2f %-12.2f %-11.2f %-12.2f\n",
			l.Lane, l.LambdaNM, l.RxPowerDBm, l.DispersionPenaltyDB, l.MarginDB, eqMargin)
	}
	worst, _ := optics.WorstLane(lanes)
	eqWorst := worst.MarginDB + worst.DispersionPenaltyDB - eq.ResidualPenaltyDB(worst.DispersionPenaltyDB)
	fmt.Fprintf(w, "worst lane %d (%.0f nm): raw margin %.2f dB, %.2f dB with MLSE equalization\n",
		worst.Lane, worst.LambdaNM, worst.MarginDB, eqWorst)
	shared := optics.SharedChannels(optics.CWDM8(), optics.CWDM4())
	fmt.Fprintf(w, "CWDM8↔CWDM4 interop channels: %v\n", shared)
	return []Row{
		deviation("dB-worst-lane-margin", "worst CWDM8 lane's raw margin over 1 km", "not quantified", worst.MarginDB, 0.28, 0.01),
		deviation("dB-worst-lane-MLSE-margin", "worst CWDM8 lane's margin with MLSE equalization", "not quantified", eqWorst, 0.34, 0.01),
		match("interop-channels", "CWDM8 channels a CWDM4 transmitter also carries", "[0 2 4 6]", fmt.Sprint(shared)),
	}, nil
}

// defragExperiment quantifies §4.2.4's defragmentation point.
func defragExperiment(w io.Writer) ([]Row, error) {
	mix := sched.ProductionMix()
	cfg := sched.ReferenceConfig()
	cfg.Duration = 150000

	reconf, err := sched.Simulate(sched.FullPod(), sched.Reconfigurable{}, mix, cfg)
	if err != nil {
		return nil, err
	}
	plain, err := sched.Simulate(sched.FullPod(), sched.Contiguous{}, mix, cfg)
	if err != nil {
		return nil, err
	}
	migrations := 0
	defrag, err := sched.Simulate(sched.FullPod(), sched.ContiguousWithDefrag{Migrations: &migrations}, mix, cfg)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "reconfigurable:       utilization %.3f, migrations 0\n", reconf.Utilization)
	fmt.Fprintf(w, "contiguous:           utilization %.3f\n", plain.Utilization)
	fmt.Fprintf(w, "contiguous + defrag:  utilization %.3f, %d cube migrations paid\n",
		defrag.Utilization, migrations)
	fmt.Fprintln(w, "the reconfigurable fabric gets the best utilization with zero job migration")
	return nil, nil
}

// scaleoutExperiment runs the §2.2.2 hybrid multi-pod model.
func scaleoutExperiment(w io.Writer) ([]Row, error) {
	sys := mlperf.DefaultSystem()
	m := mlperf.LLM0()
	m.GlobalBatch = 16384
	for _, pods := range []int{1, 2, 4, 8} {
		cfg := mlperf.MultiPodConfig{
			Pods:        pods,
			ShapePerPod: topo.Shape{X: 8, Y: 16, Z: 32},
			CrossPod:    mlperf.DefaultCrossPod(),
		}
		mm := m
		mm.GlobalBatch = m.GlobalBatch / 4 * float64(pods) // fixed per-pod batch
		step, err := sys.StepTimeMultiPod(mm, cfg)
		if err != nil {
			return nil, err
		}
		eff := 1.0
		if pods > 1 {
			eff, err = sys.ScaleOutEfficiency(mm, cfg)
			if err != nil {
				return nil, err
			}
		}
		fmt.Fprintf(w, "%d pod(s) × 4096 chips: step %.2f s (cross-pod DP %.1f ms), weak-scaling efficiency %.1f%%\n",
			pods, step.Total, 1e3*step.CrossPodDP, 100*eff)
	}
	return nil, nil
}

// refreshExperiment runs the §2.1 rapid-technology-refresh trajectory:
// blocks upgraded one at a time from 100G to 400G modules on a live fabric.
func refreshExperiment(w io.Writer) ([]Row, error) {
	old, err := optics.GenerationByName("100G-CWDM4")
	if err != nil {
		return nil, err
	}
	neu, err := optics.GenerationByName("2x400G-bidi-CWDM4")
	if err != nil {
		return nil, err
	}
	steps, err := dcn.TechRefresh(8, 14, old, neu, 50e9)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "%-10s %-16s %-16s\n", "upgraded", "capacity(Tbps)", "delivered(Tbps)")
	for _, s := range steps {
		fmt.Fprintf(w, "%-10d %-16.2f %-16.2f\n", s.Upgraded, 8*s.CapacityBps/1e12, 8*s.AchievedBps/1e12)
	}
	fmt.Fprintln(w, "every step interoperates; capacity and delivery never regress (§2.1)")
	return nil, nil
}

// campusExperiment runs the shifting-services campus loop (§1's third use
// case): per-epoch re-engineering with incremental reprogramming.
func campusExperiment(w io.Writer) ([]Row, error) {
	clusters, epochs := 10, 12
	cfg := dcn.CampusConfig{
		Clusters: clusters,
		Uplinks:  14,
		Switches: 22,
		Epochs:   epochs,
		BaseBps:  0.5e9,
		Services: dcn.RandomServices(20, clusters, epochs, 150e9, 7),
		TrunkBps: 12.5e9,
		Seed:     1,
	}
	eps, err := dcn.RunCampus(cfg)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "%-6s %-9s %-7s %-6s %-14s %-14s %-14s\n",
		"epoch", "services", "churn", "kept", "offered(Tbps)", "TE(Tbps)", "static(Tbps)")
	var teSum, stSum float64
	for _, e := range eps {
		fmt.Fprintf(w, "%-6d %-9d %-7d %-6d %-14.2f %-14.2f %-14.2f\n",
			e.Epoch, e.ActiveServices, e.Churn, e.Kept,
			8*e.OfferedBps/1e12, 8*e.AchievedBps/1e12, 8*e.StaticAchievedBps/1e12)
		teSum += e.AchievedBps
		stSum += e.StaticAchievedBps
	}
	fmt.Fprintf(w, "cumulative delivery: engineered %.2fx the static mesh\n", teSum/stSum)
	return nil, nil
}
