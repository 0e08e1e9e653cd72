package sched

import (
	"errors"

	"lightwave/internal/sim"
)

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
// duration. Every job stream in the tree (Simulate, superpod.Evaluate,
// superpod.Runner) draws through here, so a seed means the same jobs
// everywhere.
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

// ReferenceConfig returns the calibrated §4.2.4 experiment configuration:
// a saturating job stream with aggressive backfill, long enough to wash out
// warmup.
func ReferenceConfig() SimConfig {
	return SimConfig{Duration: 300000, Seed: 5, BackfillWindow: 64}
}

// Stats summarizes one scheduling simulation.
type Stats struct {
	// Utilization is allocated cube-time over total cube-time.
	Utilization float64
	Completed   int
	// MeanWait is the mean queueing delay of started jobs.
	MeanWait float64
	// Preempted counts jobs killed by cube failures (static fabric only;
	// the reconfigurable fabric swaps a spare cube in instead).
	Preempted int
	// Swaps counts cube swaps performed after failures.
	Swaps int
	// Started counts jobs placed on cubes; Running is how many were still
	// on cubes when the horizon ended. Completed + Preempted + Running
	// always equals Started.
	Started int
	Running int
}

// SimConfig controls the simulation.
type SimConfig struct {
	Duration float64
	Seed     uint64
	// CubeMTBF is the mean time between failures of one cube (0 disables
	// failures); repairs take MeanRepair seconds.
	CubeMTBF   float64
	MeanRepair float64
	// BackfillWindow is how many queued jobs may jump a blocked head job
	// (0 = default 6).
	BackfillWindow int
}

// Simulate runs the job stream against a pod under the given placement
// policy and returns utilization statistics. It is a seeded event stream
// in front of a mirror-only Scheduler that adopts pod as its one mirror:
// arrivals, cube failures and repairs are drawn from one sim.Rand on a
// sim.Queue, and every scheduling decision is the Scheduler's.
func Simulate(pod *Pod, placer Placer, mix JobMix, cfg SimConfig) (Stats, error) {
	if cfg.Duration <= 0 {
		return Stats{}, errNonPositive
	}
	if err := mix.Validate(); err != nil {
		return Stats{}, err
	}
	const podName = "pod"
	s, err := newScheduler(SchedulerConfig{
		Pods:           []string{podName},
		Placer:         placer,
		BackfillWindow: cfg.BackfillWindow,
	}, pod)
	if err != nil {
		return Stats{}, err
	}
	rng := sim.NewRand(cfg.Seed)
	var q sim.Queue
	// advance moves the scheduler to the firing event's time. The first
	// error is kept and ends the stream: later events fire but apply
	// nothing.
	var runErr error
	advance := func() bool {
		if runErr == nil {
			runErr = s.AdvanceTo(float64(q.Now()))
		}
		return runErr == nil
	}

	var arrive func()
	arrive = func() {
		if advance() {
			_, _, runErr = s.Submit(mix.Sample(rng))
		}
		q.After(rng.ExpFloat64()/mix.ArrivalRate, arrive)
	}
	q.After(rng.ExpFloat64()/mix.ArrivalRate, arrive)

	if cfg.CubeMTBF > 0 {
		rate := float64(pod.Cubes()) / cfg.CubeMTBF
		repairT := cfg.MeanRepair
		if repairT <= 0 {
			repairT = 3600
		}
		var fail func()
		fail = func() {
			cube := rng.Intn(pod.Cubes())
			// An already-failed cube has a repair in flight; injecting
			// again would schedule a duplicate repair timer.
			if pod.State(cube) != Failed {
				if advance() {
					runErr = s.FailCube(podName, cube)
				}
				q.After(rng.ExpFloat64()*repairT, func() {
					if advance() {
						runErr = s.RepairCube(podName, cube)
					}
				})
			}
			q.After(rng.ExpFloat64()/rate, fail)
		}
		q.After(rng.ExpFloat64()/rate, fail)
	}

	q.RunUntil(sim.Time(cfg.Duration))
	if !advance() {
		return Stats{}, runErr
	}

	st := s.Stats()
	if d, ok := placer.(ContiguousWithDefrag); ok && d.Migrations != nil {
		*d.Migrations += st.MigratedCubes
	}
	return Stats{
		// The offline denominator is every cube for the whole run, failed
		// or not; SchedulerStats.Utilization divides by available
		// cube-time instead.
		Utilization: s.busyIntegral / (float64(pod.Cubes()) * cfg.Duration),
		Completed:   st.Completed,
		MeanWait:    st.MeanWaitSeconds,
		Preempted:   st.Preempted,
		Swaps:       st.Swaps,
		Started:     st.Started,
		Running:     st.RunningJobs,
	}, nil
}
