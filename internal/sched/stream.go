package sched

import (
	"errors"
	"sort"

	"lightwave/internal/sim"
)

// The job stream is the one seeded workload every driver of the Scheduler
// replays: Simulate on a mirror-only scheduler, superpod.Evaluate on fleet
// pods, superpod.Runner on lwfleetd's tick.

// JobMix describes the offered workload: a distribution over slice sizes
// (in cubes) with mean job duration.
type JobMix struct {
	// Sizes and Weights define the slice-size distribution.
	Sizes   []int
	Weights []float64
	// MeanDuration is the mean (exponential) job runtime in seconds.
	MeanDuration float64
	// ArrivalRate is jobs per second (Poisson).
	ArrivalRate float64
}

var (
	errNonPositive = errors.New("sched: non-positive simulation parameters")
	errBadMix      = errors.New("sched: invalid job mix")
)

// Validate reports whether the mix can drive a job stream: positive
// rates, and a size distribution with one non-negative weight per
// positive size and some weight to draw from.
func (m JobMix) Validate() error {
	if m.ArrivalRate <= 0 || m.MeanDuration <= 0 {
		return errNonPositive
	}
	if len(m.Sizes) == 0 || len(m.Sizes) != len(m.Weights) {
		return errBadMix
	}
	total := 0.0
	for i, w := range m.Weights {
		if m.Sizes[i] <= 0 || w < 0 {
			return errBadMix
		}
		total += w
	}
	if total <= 0 {
		return errBadMix
	}
	return nil
}

// Sample draws one job from a validated mix: the size first, then the
// duration. Arrivals is its one caller.
func (m JobMix) Sample(rng *sim.Rand) JobSpec {
	total := 0.0
	for _, w := range m.Weights {
		total += w
	}
	x := rng.Float64() * total
	size := m.Sizes[len(m.Sizes)-1]
	for i, w := range m.Weights {
		if x < w {
			size = m.Sizes[i]
			break
		}
		x -= w
	}
	return JobSpec{Cubes: size, DurationSeconds: rng.ExpFloat64() * m.MeanDuration}
}

// ProductionMix returns a TPU-fleet-like mix: many small slices, a steady
// stream of mid-size slices, occasional very large ones (§4.2.2: "In
// practice, a distribution of slice sizes running different size models is
// used").
func ProductionMix() JobMix {
	return JobMix{
		Sizes:        []int{1, 2, 4, 8, 16, 32},
		Weights:      []float64{0.30, 0.25, 0.20, 0.15, 0.07, 0.03},
		MeanDuration: 1000,
		ArrivalRate:  0.03,
	}
}

// Arrivals is a mix's Poisson job arrivals, from time 0 on one generator.
// Each arrival draws its gap from the one before, then its job (Sample:
// size, then duration), so one seed means the same jobs to every consumer.
type Arrivals struct {
	mix  JobMix
	rng  *sim.Rand
	next float64
}

// NewArrivals starts a validated mix's arrivals on rng.
func NewArrivals(mix JobMix, rng *sim.Rand) *Arrivals {
	a := &Arrivals{mix: mix, rng: rng}
	a.next = a.gap()
	return a
}

func (a *Arrivals) gap() float64 { return a.rng.ExpFloat64() / a.mix.ArrivalRate }

// Peek returns the next arrival's time.
func (a *Arrivals) Peek() float64 { return a.next }

// Next returns the next arrival's time and job.
func (a *Arrivals) Next() (float64, JobSpec) {
	t, job := a.next, a.mix.Sample(a.rng)
	a.next += a.gap()
	return t, job
}

// Resume moves a next arrival that fell behind now to one fresh gap after
// now, for a consumer whose clock jumped ahead of the stream (a scheduler
// recovered from its journal) and cannot go back.
func (a *Arrivals) Resume(now float64) {
	if a.next < now {
		a.next = now + a.gap()
	}
}

// EventKind says what a stream event asks of the scheduler.
type EventKind uint8

// Stream event kinds.
const (
	Arrival    EventKind = iota // Submit(Job)
	Warmup                      // StartMeasurement
	CubeFail                    // FailCube(Pod, Cube)
	CubeRepair                  // RepairCube(Pod, Cube)
	PodLoss                     // SetPodDown(Pod, true)
	PodRestore                  // SetPodDown(Pod, false)
)

// Event is one stream entry at virtual time At.
type Event struct {
	At        float64
	Kind      EventKind
	Pod, Cube int
	Job       JobSpec
}

// Stream configures one seeded workload over Pods pods of Cubes cubes up
// to Horizon seconds. Warmup > 0 places the warmup marker; CubeMTBF > 0
// fails each cube at that mean interval, its repair taking MeanRepair
// (default 3600) on average; PodLossAt > 0 loses the last pod, and a later
// PodRestoreAt restores it.
type Stream struct {
	Mix                     JobMix
	Horizon, Warmup         float64
	Pods, Cubes             int
	CubeMTBF, MeanRepair    float64
	Seed                    uint64
	PodLossAt, PodRestoreAt float64
}

// Events generates the stream, its arrivals drawn from rng and pod p's
// cube faults from sim.Substream(Seed, 100+p), ordered by time and, at
// equal times, as generated: arrivals, warmup marker, faults, pod loss
// window. A failure drawn for a cube the stream still holds failed is
// dropped and draws no repair, so every outage ends at its own repair.
func (c Stream) Events(rng *sim.Rand) []Event {
	evs := make([]Event, 0, int(c.Horizon*c.Mix.ArrivalRate)+64) // expected arrivals, then faults and markers
	for a := NewArrivals(c.Mix, rng); a.Peek() < c.Horizon; {
		t, job := a.Next()
		evs = append(evs, Event{At: t, Kind: Arrival, Job: job})
	}
	if c.Warmup > 0 {
		evs = append(evs, Event{At: c.Warmup, Kind: Warmup})
	}
	repair := c.MeanRepair
	if repair <= 0 {
		repair = 3600
	}
	for p := 0; c.CubeMTBF > 0 && p < c.Pods; p++ {
		faults, rate := sim.Substream(c.Seed, 100+uint64(p)), float64(c.Cubes)/c.CubeMTBF
		healthyAt := make([]float64, c.Cubes) // when each cube's outage ends
		for t := faults.ExpFloat64() / rate; t < c.Horizon; t += faults.ExpFloat64() / rate {
			cube := faults.Intn(c.Cubes)
			if t < healthyAt[cube] {
				continue
			}
			healthyAt[cube] = t + faults.ExpFloat64()*repair
			evs = append(evs, Event{At: t, Kind: CubeFail, Pod: p, Cube: cube})
			if healthyAt[cube] < c.Horizon {
				evs = append(evs, Event{At: healthyAt[cube], Kind: CubeRepair, Pod: p, Cube: cube})
			}
		}
	}
	if c.PodLossAt > 0 {
		evs = append(evs, Event{At: c.PodLossAt, Kind: PodLoss, Pod: c.Pods - 1})
		if c.PodRestoreAt > c.PodLossAt {
			evs = append(evs, Event{At: c.PodRestoreAt, Kind: PodRestore, Pod: c.Pods - 1})
		}
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].At < evs[j].At })
	return evs
}
