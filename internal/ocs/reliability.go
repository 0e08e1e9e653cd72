package ocs

import (
	"errors"

	"lightwave/internal/sim"
)

// This file models the long-run field behaviour of §4.1.1: "On-going
// reliability tests, manufacturing screens, and the ability to field
// replace failed sub-assemblies leads to the chassis typically achieving
// greater than 99.98% availability in the field today." The lifetime
// simulation injects component failures at their MTBFs into one Switch
// through its FRU methods (fru.go: redundant PSUs and fans, hot-swappable
// driver boards, on-die spare mirrors), adds the non-redundant control
// board the switch does not model, and accounts downtime until field
// repair completes.

// ReliabilityParams are the component failure/repair statistics.
type ReliabilityParams struct {
	// Mean time between failures per component instance, hours.
	PSUMTBFHours     float64
	FanMTBFHours     float64
	DriverMTBFHours  float64
	ControlMTBFHours float64
	MirrorMTBFHours  float64
	// RepairHours is the mean field-replacement time for a FRU.
	RepairHours float64
	// MaintenancePerYear scheduled maintenance windows per year, each
	// MaintenanceHours of downtime.
	MaintenancePerYear float64
	MaintenanceHours   float64
}

// DefaultReliability returns the calibrated production figures.
func DefaultReliability() ReliabilityParams {
	return ReliabilityParams{
		PSUMTBFHours:       175000,
		FanMTBFHours:       60000,
		DriverMTBFHours:    90000, // the HV drivers were the largest reliability challenge
		ControlMTBFHours:   150000,
		MirrorMTBFHours:    4.0e6, // per mirror; repaired from on-die spares
		RepairHours:        8,
		MaintenancePerYear: 1.5,
		MaintenanceHours:   0.5,
	}
}

// LifetimeReport summarizes a simulated deployment.
type LifetimeReport struct {
	Years          float64
	DowntimeHours  float64
	Availability   float64
	FRUReplaced    int
	DriverFailures int
	MirrorFailures int
	// PortsLost counts ports permanently failed after mirror-spare
	// exhaustion.
	PortsLost int
}

// ErrBadLifetime is returned for degenerate simulation spans.
var ErrBadLifetime = errors.New("ocs: non-positive lifetime")

// SimulateLifetime runs one chassis for the given number of years and
// reports downtime and repair activity. The chassis is a Switch built from
// DefaultConfig, failed and repaired through its own FRU methods, so the
// redundancy rule is the switch's: it is down when it is not Up (power or
// cooling redundancy exhausted), when the control board is dead, or while
// a maintenance window is open. Driver-board failures degrade circuits but
// do not down the chassis (they are hot-swapped), and a mirror failure
// takes a die's spare mirror until the die has none, then the port.
func SimulateLifetime(p ReliabilityParams, years float64, rng *sim.Rand) (LifetimeReport, error) {
	if years <= 0 {
		return LifetimeReport{}, ErrBadLifetime
	}
	if rng == nil {
		rng = sim.NewRand(0x0C5)
	}
	sw, err := New(DefaultConfig())
	if err != nil {
		return LifetimeReport{}, err
	}
	horizon := years * 8766 // hours

	var q sim.Queue
	rep := LifetimeReport{Years: years}

	// The switch models neither the control board nor maintenance.
	controlDown := false
	maintenance := false

	downSince := -1.0
	reassess := func() {
		now := float64(q.Now())
		if !sw.Up() || controlDown || maintenance {
			if downSince < 0 {
				downSince = now
			}
		} else if downSince >= 0 {
			rep.DowntimeHours += now - downSince
			downSince = -1
		}
	}
	// fail takes the first healthy one of n units out of service and
	// schedules its field replacement; with none healthy it does nothing.
	fail := func(n int, healthy func(int) bool, down, replace func(int)) {
		for i := range n {
			if healthy(i) {
				down(i)
				q.After(rng.ExpFloat64()*p.RepairHours, func() {
					replace(i)
					rep.FRUReplaced++
					reassess()
				})
				break
			}
		}
		reassess()
	}

	// Failure processes: one recurring generator per component class.
	type proc struct {
		rate float64 // failures/hour across the population
		fire func()
	}
	// Every unit index below is in range and every replaced unit failed,
	// so the FRU methods return no error.
	procs := []proc{
		{float64(len(sw.psu)) / p.PSUMTBFHours, func() {
			fail(len(sw.psu), func(i int) bool { return sw.psu[i] },
				func(i int) { _ = sw.FailPSU(i) }, func(i int) { _ = sw.ReplacePSU(i) })
		}},
		{float64(len(sw.fans)) / p.FanMTBFHours, func() {
			fail(len(sw.fans), func(i int) bool { return sw.fans[i] },
				func(i int) { _ = sw.FailFan(i) }, func(i int) { _ = sw.ReplaceFan(i) })
		}},
		{float64(sw.cfg.DriverBoards) / p.DriverMTBFHours, func() {
			rep.DriverFailures++
			fail(sw.cfg.DriverBoards, sw.DriverBoardHealthy,
				func(b int) { _, _ = sw.FailDriverBoard(b) }, func(b int) { _ = sw.ReplaceDriverBoard(b) })
		}},
		{1 / p.ControlMTBFHours, func() {
			fail(1, func(int) bool { return !controlDown },
				func(int) { controlDown = true }, func(int) { controlDown = false })
		}},
		// Every port has one in-service mirror on each die. Failures
		// alternate dies and walk the ports, skipping ports already lost.
		{float64(len(sw.dies)*sw.cfg.Radix) / p.MirrorMTBFHours, func() {
			d, start := rep.MirrorFailures%len(sw.dies), rep.MirrorFailures/len(sw.dies)
			rep.MirrorFailures++
			for i := range sw.cfg.Radix {
				if port := (start + i) % sw.cfg.Radix; !sw.portFailed[port] {
					_, _, _ = sw.FailMirror(d, sw.portMirror[d][port])
					break
				}
			}
		}},
	}
	if p.MaintenancePerYear > 0 {
		procs = append(procs, proc{p.MaintenancePerYear / 8766, func() {
			if !maintenance {
				maintenance = true
				q.After(p.MaintenanceHours, func() {
					maintenance = false
					reassess()
				})
			}
			reassess()
		}})
	}

	var arm func(i int)
	arm = func(i int) {
		pr := procs[i]
		if pr.rate <= 0 {
			return
		}
		q.After(rng.ExpFloat64()/pr.rate, func() {
			if float64(q.Now()) > horizon {
				return
			}
			pr.fire()
			arm(i)
		})
	}
	for i := range procs {
		arm(i)
	}

	q.RunUntil(sim.Time(horizon))
	if downSince >= 0 {
		rep.DowntimeHours += horizon - downSince
	}
	rep.Availability = 1 - rep.DowntimeHours/horizon
	rep.PortsLost = len(sw.FailedPorts())
	return rep, nil
}

// FleetAvailability runs n independent chassis lifetimes and returns the
// mean availability — the field statistic of §4.1.1.
func FleetAvailability(p ReliabilityParams, years float64, n int, rng *sim.Rand) (float64, error) {
	if n <= 0 {
		return 0, ErrBadLifetime
	}
	if rng == nil {
		rng = sim.NewRand(0xF1EE7)
	}
	sum := 0.0
	for i := 0; i < n; i++ {
		rep, err := SimulateLifetime(p, years, rng.Split())
		if err != nil {
			return 0, err
		}
		sum += rep.Availability
	}
	return sum / float64(n), nil
}
