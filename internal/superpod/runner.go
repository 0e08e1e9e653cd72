package superpod

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"lightwave/internal/fleet"
	"lightwave/internal/sched"
	"lightwave/internal/sim"
)

// RunnerConfig parameterizes the daemon-embedded scheduler loop.
type RunnerConfig struct {
	// Manager is the fleet receiving slice intents (required).
	Manager *fleet.Manager
	// Pods are the pod names the scheduler places onto (required);
	// InstalledCubes is the usable cube count per pod (default 64).
	// The scheduler runs with sched's defaults: the Reconfigurable
	// placer — the production policy — and its backfill window.
	Pods           []string
	InstalledCubes int
	// Mix is the synthetic offered workload (default sched.ProductionMix).
	Mix sched.JobMix
	// Interval is the wall-clock tick (default 2s); each tick advances
	// virtual time by virtualPerTick.
	Interval time.Duration
	Seed     uint64
}

// virtualPerTick is the virtual seconds one runner tick covers: one
// virtual minute.
const virtualPerTick = 60

// Runner drives a sched.Scheduler against the live fleet on a wall-clock
// ticker: each tick samples Poisson arrivals from the mix over the next
// virtual-time window and advances the scheduler through them. Fleet
// quarantine/recovery events feed back as pod down/up transitions, closing
// the scheduling↔fleet↔chaos loop inside the daemon.
type Runner struct {
	cfg   RunnerConfig
	s     *sched.Scheduler
	rng   *sim.Rand
	nextA float64 // next arrival's virtual time
}

// NewRunner builds the scheduler over the fleet.
func NewRunner(cfg RunnerConfig) (*Runner, error) {
	if cfg.Manager == nil {
		return nil, errors.New("superpod: runner needs a fleet manager")
	}
	if len(cfg.Mix.Sizes) == 0 {
		cfg.Mix = sched.ProductionMix()
	}
	if err := cfg.Mix.Validate(); err != nil {
		return nil, fmt.Errorf("superpod: %w", err)
	}
	// Trim the mix to jobs that can fit a pod: on small daemons (-cubes 16)
	// the production mix's 32-cube jobs would otherwise be rejected by the
	// scheduler and kill the loop.
	installed := cfg.InstalledCubes
	if installed <= 0 || installed > 64 {
		installed = 64
	}
	var sizes []int
	var weights []float64
	for i, sz := range cfg.Mix.Sizes {
		if sz <= installed {
			sizes = append(sizes, sz)
			weights = append(weights, cfg.Mix.Weights[i])
		}
	}
	if len(sizes) == 0 {
		return nil, fmt.Errorf("superpod: no job size in the mix fits %d installed cubes", installed)
	}
	cfg.Mix.Sizes, cfg.Mix.Weights = sizes, weights
	if cfg.Interval <= 0 {
		cfg.Interval = 2 * time.Second
	}
	s, err := sched.NewScheduler(sched.SchedulerConfig{
		Pods:           cfg.Pods,
		InstalledCubes: cfg.InstalledCubes,
		Ops:            FleetOps{M: cfg.Manager},
	})
	if err != nil {
		return nil, err
	}
	rng := sim.Substream(cfg.Seed, 7)
	return &Runner{cfg: cfg, s: s, rng: rng, nextA: rng.ExpFloat64() / cfg.Mix.ArrivalRate}, nil
}

// Scheduler returns the runner's scheduler (for status serving and manual
// submissions via the control RPC).
func (r *Runner) Scheduler() *sched.Scheduler { return r.s }

// tick advances one virtual window, submitting the arrivals that fall in
// it.
func (r *Runner) tick() error {
	now := r.s.Now()
	// After crash recovery the scheduler's virtual clock resumes where the
	// journal left it, ahead of this runner's freshly seeded arrival clock.
	// Re-anchor the next arrival to the recovered clock instead of
	// retroactively submitting the downtime gap (which would also trip
	// AdvanceTo's monotonicity check and kill the loop).
	if r.nextA < now {
		r.nextA = now + r.rng.ExpFloat64()/r.cfg.Mix.ArrivalRate
	}
	target := now + virtualPerTick
	for r.nextA < target {
		if err := r.s.AdvanceTo(r.nextA); err != nil {
			return err
		}
		if _, _, err := r.s.Submit(r.cfg.Mix.Sample(r.rng)); err != nil {
			return err
		}
		r.nextA += r.rng.ExpFloat64() / r.cfg.Mix.ArrivalRate
	}
	return r.s.AdvanceTo(target)
}

// Run ticks until ctx is cancelled, draining fleet events between ticks so
// quarantined pods stop receiving placements and recovered pods rejoin.
// Tick errors end the run.
func (r *Runner) Run(ctx context.Context) error {
	sub := r.cfg.Manager.Subscribe(256)
	defer sub.Close()
	tick := time.NewTicker(r.cfg.Interval)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return nil
		case ev := <-sub.Events():
			if err := r.handleEvent(ev); err != nil {
				return err
			}
			continue
		case <-tick.C:
		}
		if err := r.tick(); err != nil {
			return err
		}
	}
}

// handleEvent maps fleet health transitions onto the scheduler. Events for
// pods the scheduler does not manage are ignored.
func (r *Runner) handleEvent(ev fleet.Event) error {
	isOurs := false
	for _, p := range r.cfg.Pods {
		if p == ev.Pod {
			isOurs = true
			break
		}
	}
	if !isOurs {
		return nil
	}
	switch ev.Type {
	case fleet.EventQuarantined:
		return r.s.SetPodDown(ev.Pod, true)
	case fleet.EventRecovered:
		return r.s.SetPodDown(ev.Pod, false)
	case fleet.EventUndrained:
		// A plain pod undrain (no OCS detail) releases quarantine too.
		if !strings.HasPrefix(ev.Detail, "ocs") {
			return r.s.SetPodDown(ev.Pod, false)
		}
	}
	return nil
}
