package chaos

import (
	"fmt"
	"math"
	"sort"

	"lightwave/internal/sim"
)

// The random-scenario generator below was deleted from the package in
// PR 25, and with it its use of avail's rate table: nothing outside tests
// drew a random scenario (deadexport over cmd/, examples/ and bench/). The
// floor tests that exercised it run against this copy, and a copy of the
// table, until a later PR retires them; no other test may start using
// them.

// faultRates is avail's per-component failure/repair rate table as the
// generator read it: cube repairs are day-scale server operations (§4.3),
// a whole OCS chassis delivers >99.98% availability with an 8h
// field-repair SLO (§4.1.1), and transceiver/circuit impairments are
// transient events handled by telemetry and drains (§3.2.2, §3.4).
type faultRates struct {
	// CubeMTTRHours is the mean elemental-cube repair time.
	CubeMTTRHours float64
	// OCSMTBFHours and OCSRepairHours describe whole-chassis failure:
	// with an 8h repair and >99.98% availability, MTBF ≈ 8·A/(1−A) ≈
	// 40000h (consistent with ocs.DefaultReliability's FRU model).
	OCSMTBFHours   float64
	OCSRepairHours float64
	// TransceiverBERPerHour is the per-trunk rate of transient BER
	// degradations (dirty connector, marginal module) that trip the
	// 2e-4 KP4 hard limit.
	TransceiverBERPerHour float64
	// CircuitFlapPerHour is the per-trunk rate of short circuit flaps
	// (fiber bumps, brief loss-of-light).
	CircuitFlapPerHour float64
	// FlapMeanSeconds is the mean duration of a flap or BER episode.
	FlapMeanSeconds float64
	// DrainStuckProb is the probability that an injected drain workflow
	// wedges and never undrains on its own (operator intervention).
	DrainStuckProb float64
	// PodBackendMTBFHours is the MTBF of a pod's control backend (pod
	// manager / CSM path); repair takes CubeMTTRHours.
	PodBackendMTBFHours float64
	// OCSMaintenancePerYear is the planned per-OCS maintenance-drain
	// rate (matches ocs.DefaultReliability).
	OCSMaintenancePerYear float64
}

// defaultFaultRates returns the calibrated table.
func defaultFaultRates() faultRates {
	return faultRates{
		CubeMTTRHours:         24,
		OCSMTBFHours:          40000,
		OCSRepairHours:        8,
		TransceiverBERPerHour: 1.0 / 2000,
		CircuitFlapPerHour:    1.0 / 500,
		FlapMeanSeconds:       90,
		DrainStuckProb:        0.02,
		PodBackendMTBFHours:   20000,
		OCSMaintenancePerYear: 1.5,
	}
}

// RandomConfig parameterizes the random-scenario generator. Arrival
// rates come from the faultRates table (per real hour); Acceleration
// compresses real time into the replay so year-scale fault processes
// produce events on a seconds-scale virtual horizon. Each fault class
// draws from its own sim.Substream of Seed, so the schedule is a pure
// function of this config at any generation order.
type RandomConfig struct {
	Name           string
	HorizonSeconds float64
	// Blocks is the DCN block count (trunk pairs eligible for flap/BER
	// faults); OCSes is the DCN switch count eligible for outage.
	Blocks int
	OCSes  int
	// Pods are the compute pods eligible for pod-loss and drain faults.
	Pods []string
	// Rates is the failure/repair table; zero value gets
	// defaultFaultRates.
	Rates faultRates
	// Acceleration maps real hours onto virtual seconds: a process with
	// rate r per hour arrives at r·Acceleration/3600 per virtual second
	// (default 50000 ≈ 14 real hours per virtual second). Repair and
	// maintenance durations are compressed by the same factor; flap/BER
	// episode durations are already seconds-scale and stay uncompressed.
	Acceleration float64
	// MaxEvents caps the schedule (default 64).
	MaxEvents int
	Seed      uint64
}

func (c RandomConfig) withDefaults() RandomConfig {
	if c.Name == "" {
		c.Name = "random"
	}
	if c.Rates == (faultRates{}) {
		c.Rates = defaultFaultRates()
	}
	if c.Acceleration <= 0 {
		c.Acceleration = 50000
	}
	if c.MaxEvents <= 0 {
		c.MaxEvents = 64
	}
	return c
}

// Random draws a scenario from the failure-rate table. Fault classes
// are generated independently on substreams 1..5 of Seed and merged in
// time order.
func Random(cfg RandomConfig) (Scenario, error) {
	cfg = cfg.withDefaults()
	if cfg.HorizonSeconds <= 0 || cfg.Blocks < 2 || cfg.OCSes < 1 {
		return Scenario{}, fmt.Errorf("%w: random scenario needs a horizon, >=2 blocks and >=1 OCSes", ErrConfig)
	}
	s := Scenario{Name: cfg.Name, HorizonSeconds: cfg.HorizonSeconds}
	perHour := cfg.Acceleration / 3600 // rate multiplier: per-hour → per-virtual-second
	pairs := float64(cfg.Blocks*(cfg.Blocks-1)) / 2

	// OCS outages (substream 1): whole-chassis failures, repaired after
	// the compressed field-repair SLO.
	rng := sim.Substream(cfg.Seed, 1)
	rate := float64(cfg.OCSes) / cfg.Rates.OCSMTBFHours * perHour
	repair := cfg.Rates.OCSRepairHours * 3600 / cfg.Acceleration
	for t := nextArrival(rng, 0, rate); t < cfg.HorizonSeconds; t = nextArrival(rng, t, rate) {
		ocs := rng.Intn(cfg.OCSes)
		s.Events = append(s.Events, Event{At: t, Kind: KindOCSOutage, OCS: ocs})
		if end := t + repair; end < cfg.HorizonSeconds {
			s.Events = append(s.Events, Event{At: end, Kind: KindOCSRestore, OCS: ocs})
		}
	}

	// Pod backend losses (substream 2), healed after the compressed cube
	// MTTR (a day-scale server op).
	rng = sim.Substream(cfg.Seed, 2)
	rate = float64(len(cfg.Pods)) / cfg.Rates.PodBackendMTBFHours * perHour
	heal := cfg.Rates.CubeMTTRHours * 3600 / cfg.Acceleration
	for t := nextArrival(rng, 0, rate); t < cfg.HorizonSeconds; t = nextArrival(rng, t, rate) {
		pod := cfg.Pods[rng.Intn(len(cfg.Pods))]
		s.Events = append(s.Events, Event{At: t, Kind: KindPodLoss, Pod: pod})
		if end := t + heal; end < cfg.HorizonSeconds {
			s.Events = append(s.Events, Event{At: end, Kind: KindPodRestore, Pod: pod})
		}
	}

	// Circuit flaps (substream 3): seconds-scale transients, one trunk
	// drawn per event.
	rng = sim.Substream(cfg.Seed, 3)
	rate = pairs * cfg.Rates.CircuitFlapPerHour * perHour
	for t := nextArrival(rng, 0, rate); t < cfg.HorizonSeconds; t = nextArrival(rng, t, rate) {
		s.Events = append(s.Events, Event{
			At: t, Kind: KindCircuitFlap, Trunk: randomPair(rng, cfg.Blocks),
			DurationSeconds: flapDuration(rng, cfg.Rates.FlapMeanSeconds),
		})
	}

	// Transceiver BER excursions (substream 4): log-uniform BER between
	// 1e-6 and 1e-3, straddling the KP4 limit so some trip the drain.
	rng = sim.Substream(cfg.Seed, 4)
	rate = pairs * cfg.Rates.TransceiverBERPerHour * perHour
	for t := nextArrival(rng, 0, rate); t < cfg.HorizonSeconds; t = nextArrival(rng, t, rate) {
		ber := math.Pow(10, -6+3*rng.Float64())
		s.Events = append(s.Events, Event{
			At: t, Kind: KindBERDegrade, Trunk: randomPair(rng, cfg.Blocks), BER: ber,
			DurationSeconds: flapDuration(rng, cfg.Rates.FlapMeanSeconds),
		})
	}

	// Maintenance drains (substream 5) on compute pods; a DrainStuckProb
	// fraction wedge into stuck drains.
	rng = sim.Substream(cfg.Seed, 5)
	rate = float64(len(cfg.Pods)) * cfg.Rates.OCSMaintenancePerYear / 8766 * perHour
	for t := nextArrival(rng, 0, rate); t < cfg.HorizonSeconds; t = nextArrival(rng, t, rate) {
		pod := cfg.Pods[rng.Intn(len(cfg.Pods))]
		ocs := rng.Intn(4)
		if rng.Bernoulli(cfg.Rates.DrainStuckProb) {
			s.Events = append(s.Events, Event{At: t, Kind: KindStuckDrain, Pod: pod, OCS: ocs})
		} else {
			s.Events = append(s.Events, Event{
				At: t, Kind: KindSlowDrain, Pod: pod, OCS: ocs,
				DurationSeconds: cfg.HorizonSeconds / 8,
			})
		}
	}

	// Merge classes in time order (actions() re-sorts stably; sorting
	// the event list here keeps Validate errors and String dumps tidy).
	sortEventsStable(s.Events)
	if len(s.Events) > cfg.MaxEvents {
		s.Events = s.Events[:cfg.MaxEvents]
	}
	return s, s.Validate()
}

// nextArrival advances a Poisson process: the next event after t at the
// given per-second rate, or +Inf when the rate is zero.
func nextArrival(rng *sim.Rand, t, rate float64) float64 {
	if rate <= 0 {
		return math.Inf(1)
	}
	return t + rng.ExpFloat64()/rate
}

func randomPair(rng *sim.Rand, blocks int) [2]int {
	a := rng.Intn(blocks)
	b := rng.Intn(blocks - 1)
	if b >= a {
		b++
	}
	if a > b {
		a, b = b, a
	}
	return [2]int{a, b}
}

// flapDuration draws an exponential episode length, floored at 1s so
// zero-length transients cannot appear.
func flapDuration(rng *sim.Rand, mean float64) float64 {
	d := rng.ExpFloat64() * mean
	if d < 1 {
		d = 1
	}
	return d
}

// sortEventsStable orders events by onset, preserving class order on
// ties.
func sortEventsStable(evs []Event) {
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].At < evs[j].At })
}
