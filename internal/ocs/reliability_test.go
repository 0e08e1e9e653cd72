package ocs

import (
	"errors"
	"testing"

	"lightwave/internal/sim"
)

func TestLifetimeFieldAvailability(t *testing.T) {
	// §4.1.1: "greater than 99.98% availability in the field". Average
	// over a fleet to wash out sampling noise.
	av, err := FleetAvailability(DefaultReliability(), 10, 40, sim.NewRand(1))
	if err != nil {
		t.Fatal(err)
	}
	if av < 0.9998 {
		t.Fatalf("fleet availability = %.6f, want > 0.9998", av)
	}
	if av >= 1 {
		t.Fatalf("fleet availability = %v with maintenance windows enabled", av)
	}
}

func TestLifetimeReportConsistency(t *testing.T) {
	rep, err := SimulateLifetime(DefaultReliability(), 20, sim.NewRand(2))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Availability < 0 || rep.Availability > 1 {
		t.Fatalf("availability = %v", rep.Availability)
	}
	if rep.DowntimeHours < 0 {
		t.Fatalf("downtime = %v", rep.DowntimeHours)
	}
	// Over 20 years some FRU activity is near-certain with these MTBFs.
	if rep.FRUReplaced == 0 && rep.MirrorFailures == 0 {
		t.Error("20-year lifetime with zero component events is implausible")
	}
}

func TestLifetimeErrors(t *testing.T) {
	if _, err := SimulateLifetime(DefaultReliability(), 0, nil); !errors.Is(err, ErrBadLifetime) {
		t.Fatalf("err = %v", err)
	}
	if _, err := FleetAvailability(DefaultReliability(), 1, 0, nil); !errors.Is(err, ErrBadLifetime) {
		t.Fatalf("err = %v", err)
	}
}

func TestWorseMTBFWorseAvailability(t *testing.T) {
	good := DefaultReliability()
	bad := good
	bad.ControlMTBFHours = 2000
	bad.RepairHours = 72
	avGood, err := FleetAvailability(good, 5, 20, sim.NewRand(3))
	if err != nil {
		t.Fatal(err)
	}
	avBad, err := FleetAvailability(bad, 5, 20, sim.NewRand(3))
	if err != nil {
		t.Fatal(err)
	}
	if avBad >= avGood {
		t.Fatalf("degraded MTBF/MTTR did not reduce availability: %v vs %v", avBad, avGood)
	}
}

func TestRedundancyAbsorbsSingleFaults(t *testing.T) {
	// With maintenance disabled and generous repair, single PSU/fan
	// failures never down the chassis — availability should be ≈1.
	p := DefaultReliability()
	p.MaintenancePerYear = 0
	p.ControlMTBFHours = 1e12 // exclude the single point of failure
	p.RepairHours = 1
	rep, err := SimulateLifetime(p, 10, sim.NewRand(4))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Availability < 0.99999 {
		t.Fatalf("availability = %v with full redundancy", rep.Availability)
	}
}

func TestRedundancyExhaustionDownsChassis(t *testing.T) {
	// The other side of the redundancy rule: with repairs far slower than
	// failures, both PSUs (or two of the four fans) are out most of the
	// time, and the switch the lifetime runs is down with them.
	for _, c := range []struct {
		name string
		set  func(*ReliabilityParams)
	}{
		{"psu", func(p *ReliabilityParams) { p.PSUMTBFHours = 100 }},
		{"fan", func(p *ReliabilityParams) { p.FanMTBFHours = 100 }},
	} {
		p := ReliabilityParams{
			PSUMTBFHours:     1e12,
			FanMTBFHours:     1e12,
			DriverMTBFHours:  1e12,
			ControlMTBFHours: 1e12,
			MirrorMTBFHours:  1e12,
			RepairHours:      1e4,
		}
		c.set(&p)
		rep, err := SimulateLifetime(p, 1, sim.NewRand(7))
		if err != nil {
			t.Fatal(err)
		}
		if rep.Availability >= 0.5 {
			t.Errorf("%s: availability = %v with redundancy exhausted, want < 0.5", c.name, rep.Availability)
		}
	}
}

// TestLifetimeFanThreshold puts the chassis where two of four fans are
// out for a quarter of the time and three or more for under a tenth, so
// the lifetime's availability tells "down at two fans" from "down at
// three". Fan failures arrive at 4/MTBF per hour and each takes the first
// healthy fan, and every failed fan is replaced independently: the count
// of failed fans is the Erlang loss system with 4 servers and offered
// load a = 4 × repair / MTBF, whose stationary P(k) ∝ aᵏ/k!.
func TestLifetimeFanThreshold(t *testing.T) {
	p := ReliabilityParams{
		PSUMTBFHours:     1e12,
		FanMTBFHours:     400,
		DriverMTBFHours:  1e12,
		ControlMTBFHours: 1e12,
		MirrorMTBFHours:  1e12,
		RepairHours:      100,
	}
	a := 4 * p.RepairHours / p.FanMTBFHours
	weight, total, upWeight := 1.0, 0.0, 0.0
	for k := 0; k <= 4; k++ {
		if k > 0 {
			weight *= a / float64(k)
		}
		total += weight
		if k <= 1 {
			upWeight += weight
		}
	}
	want := upWeight / total // 0.738; down only at three fans, 0.923
	rep, err := SimulateLifetime(p, 100, sim.NewRand(8))
	if err != nil {
		t.Fatal(err)
	}
	if d := rep.Availability - want; d < -0.03 || d > 0.03 {
		t.Fatalf("availability = %.4f, want %.4f ± 0.03 (chassis down at two failed fans)", rep.Availability, want)
	}
}

func TestMirrorSparesAbsorbFailures(t *testing.T) {
	// With 80 on-die spares and the default per-mirror MTBF, a 10-year
	// lifetime should essentially never exhaust spares.
	rep, err := SimulateLifetime(DefaultReliability(), 10, sim.NewRand(5))
	if err != nil {
		t.Fatal(err)
	}
	if rep.PortsLost != 0 {
		t.Fatalf("%d ports lost in 10 years", rep.PortsLost)
	}
}

func TestMaintenanceDominatesDowntime(t *testing.T) {
	// With the calibrated parameters the scheduled maintenance windows
	// are a visible share of downtime — availability without them must be
	// strictly better.
	with := DefaultReliability()
	without := with
	without.MaintenancePerYear = 0
	avWith, err := FleetAvailability(with, 10, 20, sim.NewRand(6))
	if err != nil {
		t.Fatal(err)
	}
	avWithout, err := FleetAvailability(without, 10, 20, sim.NewRand(6))
	if err != nil {
		t.Fatal(err)
	}
	if avWithout <= avWith {
		t.Fatalf("maintenance-free fleet not more available: %v vs %v", avWithout, avWith)
	}
}
