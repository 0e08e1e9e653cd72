package sched

import "lightwave/internal/sim"

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
// policy and returns utilization statistics. It replays the stream's
// events (arrivals from sim.NewRand(Seed), cube faults from its fault
// substream) on a mirror-only Scheduler that adopts pod as its one
// mirror, so every scheduling decision is the Scheduler's.
func Simulate(pod *Pod, placer Placer, mix JobMix, cfg SimConfig) (Stats, error) {
	return simulate(pod, placer, mix, cfg, nil)
}

// simulate is Simulate with j journaling the scheduler's inputs.
func simulate(pod *Pod, placer Placer, mix JobMix, cfg SimConfig, j Journal) (Stats, error) {
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
	s.SetJournal(j)
	stream := Stream{Mix: mix, Horizon: cfg.Duration, Pods: 1, Cubes: pod.Cubes(),
		CubeMTBF: cfg.CubeMTBF, MeanRepair: cfg.MeanRepair, Seed: cfg.Seed}
	// A cube the pod came in with failed stays failed: the stream's
	// faults on it are not the pod's.
	handedFailed := ^(pod.free | pod.busy)
	for _, ev := range stream.Events(sim.NewRand(cfg.Seed)) {
		if err := s.AdvanceTo(ev.At); err != nil {
			return Stats{}, err
		}
		switch {
		case ev.Kind == Arrival:
			_, _, err = s.Submit(ev.Job)
		case handedFailed&(1<<ev.Cube) != 0:
			// Not the stream's to fail or repair.
		case ev.Kind == CubeFail:
			err = s.FailCube(podName, ev.Cube)
		case ev.Kind == CubeRepair:
			err = s.RepairCube(podName, ev.Cube)
		}
		if err != nil {
			return Stats{}, err
		}
	}
	if err := s.AdvanceTo(cfg.Duration); err != nil {
		return Stats{}, err
	}

	st := s.Stats()
	if d, ok := placer.(ContiguousWithDefrag); ok && d.Migrations != nil {
		*d.Migrations += st.MigratedCubes
	}
	return Stats{
		// The offline denominator is every cube for the whole run, failed
		// or not; SchedulerStats.Utilization divides by available
		// cube-time instead.
		Utilization: s.tally.BusyIntegral / (float64(pod.Cubes()) * cfg.Duration),
		Completed:   st.Completed,
		MeanWait:    st.MeanWaitSeconds,
		Preempted:   st.Preempted,
		Swaps:       st.Swaps,
		Started:     st.Started,
		Running:     st.RunningJobs,
	}, nil
}
