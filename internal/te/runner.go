package te

import (
	"context"
	"time"
)

// RunnerConfig parameterizes a background Runner.
type RunnerConfig struct {
	Loop Config
	// Trace is the synthetic offered-load source the daemon replays; a
	// zero value gets DefaultDaemonTrace for the loop's geometry.
	Trace TraceConfig
	// Interval is the wall-clock time between epochs (default
	// Loop.EpochSeconds, or 2s when that is unset).
	Interval time.Duration
	// OnStep, when non-nil, observes every epoch's plan (for logging).
	OnStep func(epoch int, plan *Plan)
}

// DefaultDaemonTrace returns a saturating diurnal/bursty trace sized for
// a daemon's demo loop: hot service pairs well above trunk rate (so
// engineering pays), a thin background, and a long wraparound horizon.
func DefaultDaemonTrace(blocks int, trunkBps float64) TraceConfig {
	return TraceConfig{
		Blocks:           blocks,
		Epochs:           1 << 16,
		BaseBps:          trunkBps / 50,
		NumServices:      2 * blocks,
		ServiceMeanBps:   8 * trunkBps,
		DiurnalAmplitude: 0.3,
		BurstProb:        0.2,
		Seed:             1,
	}
}

// Runner drives a Loop from a synthetic trace on a wall-clock ticker —
// the daemon-embedded form of the TE loop. The Loop itself is
// concurrency-safe, so status can be served while the runner ticks.
type Runner struct {
	loop     *Loop
	trace    TraceConfig
	interval time.Duration
	onStep   func(int, *Plan)
}

// NewRunner builds the loop and validates the trace.
func NewRunner(cfg RunnerConfig) (*Runner, error) {
	if cfg.Loop.EpochSeconds <= 0 {
		cfg.Loop.EpochSeconds = 2
	}
	if cfg.Interval <= 0 {
		cfg.Interval = time.Duration(cfg.Loop.EpochSeconds * float64(time.Second))
	}
	if cfg.Trace.Blocks == 0 {
		cfg.Trace = DefaultDaemonTrace(cfg.Loop.Blocks, cfg.Loop.TrunkBps)
	}
	loop, err := NewLoop(cfg.Loop)
	if err != nil {
		return nil, err
	}
	if _, err := cfg.Trace.Epoch(0); err != nil {
		return nil, err
	}
	return &Runner{loop: loop, trace: cfg.Trace, interval: cfg.Interval, onStep: cfg.OnStep}, nil
}

// Loop returns the runner's loop (for status serving).
func (r *Runner) Loop() *Loop { return r.loop }

// Run ticks until ctx is cancelled, feeding one trace epoch per tick
// (wrapping around the trace horizon) and advancing the loop. Loop errors
// end the run.
func (r *Runner) Run(ctx context.Context) error {
	tick := time.NewTicker(r.interval)
	defer tick.Stop()
	for epoch := 0; ; epoch++ {
		select {
		case <-ctx.Done():
			return nil
		case <-tick.C:
		}
		m, err := r.trace.Epoch(epoch % r.trace.Epochs)
		if err != nil {
			return err
		}
		plan, err := r.loop.Advance(m)
		if err != nil {
			return err
		}
		if r.onStep != nil {
			r.onStep(epoch, plan)
		}
	}
}
