package te

import (
	"fmt"
	"sync"

	"lightwave/internal/dcn"
)

// Applier realizes an accepted plan on hardware, stage by stage.
// Implementations must apply stages in order; the logical topology after
// a successful Apply is plan.Target.
type Applier interface {
	Apply(plan *Plan) error
}

// Config parameterizes a Loop.
type Config struct {
	Blocks, Uplinks int
	// TrunkBps is the per-trunk, per-direction rate.
	TrunkBps float64
	// EpochSeconds is the collection epoch length.
	EpochSeconds float64
	Predictor    PredictorConfig
	// CooldownEpochs is the minimum number of epochs between
	// reconfigurations (default 3) — the temporal half of hysteresis.
	CooldownEpochs int
	// Applier realizes accepted plans; nil keeps the loop purely
	// logical (the evaluation harness's mode).
	Applier Applier
}

// Status is a point-in-time snapshot of a loop, and the te-status wire
// form.
type Status struct {
	Blocks                    int     `json:"blocks"`
	Uplinks                   int     `json:"uplinks"`
	Epoch                     int     `json:"epoch"`
	Reconfigs                 int     `json:"reconfigs"`
	SkippedReconfigs          int     `json:"skippedReconfigs"`
	Stages                    int     `json:"stages"`
	TrunksMoved               int     `json:"trunksMoved"`
	LastGain                  float64 `json:"lastGain"`
	LastPredictionError       float64 `json:"lastPredictionError"`
	MinResidualFraction       float64 `json:"minResidualFraction"`
	DrainedCapacityBpsSeconds float64 `json:"drainedCapacityBpsSeconds"`
	LastReconfigEpoch         int     `json:"lastReconfigEpoch"`
	LastReason                string  `json:"lastReason"`
	CurrentTrunks             int     `json:"currentTrunks"`
}

// Loop is the online traffic-engineering state machine: Advance it one
// epoch of observed traffic at a time and it maintains the live logical
// topology, reconfiguring through the Applier when the planner's
// hysteresis clears. All methods are safe for concurrent use.
type Loop struct {
	mu      sync.Mutex
	cfg     Config
	col     *Collector
	pred    *Predictor
	planner *Planner
	current *dcn.Topology

	epoch             int
	reconfigs         int
	skipped           int
	stages            int
	trunksMoved       int
	lastGain          float64
	lastPredErr       float64
	minResidual       float64
	drainedBpsSeconds float64
	lastReconfigEpoch int
	lastReason        string
}

// NewLoop builds a loop whose initial topology is the demand-oblivious
// uniform mesh (the state a freshly cabled fabric boots into).
func NewLoop(cfg Config) (*Loop, error) {
	if cfg.EpochSeconds <= 0 {
		return nil, fmt.Errorf("%w: epoch %g s", ErrConfig, cfg.EpochSeconds)
	}
	if cfg.CooldownEpochs <= 0 {
		cfg.CooldownEpochs = 3
	}
	col, err := NewCollector(cfg.Blocks, cfg.EpochSeconds)
	if err != nil {
		return nil, err
	}
	pred, err := NewPredictor(cfg.Blocks, cfg.Predictor)
	if err != nil {
		return nil, err
	}
	planner, err := NewPlanner(PlannerConfig{Blocks: cfg.Blocks, Uplinks: cfg.Uplinks, TrunkBps: cfg.TrunkBps})
	if err != nil {
		return nil, err
	}
	mesh, err := dcn.UniformMesh(cfg.Blocks, cfg.Uplinks)
	if err != nil {
		return nil, err
	}
	return &Loop{
		cfg:               cfg,
		col:               col,
		pred:              pred,
		planner:           planner,
		current:           mesh,
		minResidual:       1,
		lastPredErr:       -1,
		lastReconfigEpoch: -1,
	}, nil
}

// Advance is one whole epoch: integrate the epoch's offered-rate matrix
// (bytes/s) into the collector, close the collection epoch, update the
// predictor, ask the planner for a plan, and — when the plan reconfigures
// and the cooldown has passed — apply it and adopt the target topology. It
// returns the plan that governed the epoch (never nil on success). Every
// driver that replays a demand series — the daemon runner and both
// evaluators — walks the loop through here.
func (l *Loop) Advance(bps [][]float64) (*Plan, error) {
	l.mu.Lock()
	defer l.mu.Unlock()

	if err := l.col.ObserveRates(bps); err != nil {
		return nil, err
	}
	observed := l.col.Roll()
	stats, err := l.pred.Update(observed)
	if err != nil {
		return nil, err
	}
	l.lastPredErr = stats.Error
	predicted := l.pred.Predict()

	reg := Registry()
	var plan *Plan
	if l.lastReconfigEpoch >= 0 && l.epoch-l.lastReconfigEpoch < l.cfg.CooldownEpochs {
		plan = &Plan{
			Reason: fmt.Sprintf("cooldown: %d of %d epochs since reconfiguration",
				l.epoch-l.lastReconfigEpoch, l.cfg.CooldownEpochs),
			MinResidualFraction: 1,
		}
	} else {
		plan, err = l.planner.Decide(l.current, predicted)
		if err != nil {
			return nil, err
		}
	}
	l.lastGain = plan.PredictedGain
	l.lastReason = plan.Reason

	if plan.Reconfigure {
		if l.cfg.Applier != nil {
			if err := l.cfg.Applier.Apply(plan); err != nil {
				return nil, fmt.Errorf("te: applying plan at epoch %d: %w", l.epoch, err)
			}
		}
		l.current = plan.Target
		l.reconfigs++
		l.stages += len(plan.Stages)
		moved := 0
		for _, st := range plan.Stages {
			moved += len(st.Tear) + len(st.Establish)
		}
		l.trunksMoved += moved
		l.drainedBpsSeconds += plan.DrainedCapacityBpsSeconds
		if plan.MinResidualFraction < l.minResidual {
			l.minResidual = plan.MinResidualFraction
		}
		l.lastReconfigEpoch = l.epoch
		reg.Counter("te_reconfigs_total").Inc()
		reg.Counter("te_stages_total").Add(int64(len(plan.Stages)))
		reg.Counter("te_trunks_moved_total").Add(int64(moved))
		reg.Gauge("te_drained_capacity_bps_seconds").Set(l.drainedBpsSeconds)
		reg.Gauge("te_min_residual_capacity_fraction").Set(l.minResidual)
	} else {
		l.skipped++
		reg.Counter("te_reconfig_skipped_total").Inc()
	}
	l.epoch++
	reg.Counter("te_epochs_total").Inc()
	reg.Gauge("te_predicted_gain").Set(plan.PredictedGain)
	return plan, nil
}

// Current returns a copy of the live logical topology.
func (l *Loop) Current() *dcn.Topology {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.current.Clone()
}

// Status snapshots the loop.
func (l *Loop) Status() Status {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Status{
		Blocks:                    l.cfg.Blocks,
		Uplinks:                   l.cfg.Uplinks,
		Epoch:                     l.epoch,
		Reconfigs:                 l.reconfigs,
		SkippedReconfigs:          l.skipped,
		Stages:                    l.stages,
		TrunksMoved:               l.trunksMoved,
		LastGain:                  l.lastGain,
		LastPredictionError:       l.lastPredErr,
		MinResidualFraction:       l.minResidual,
		DrainedCapacityBpsSeconds: l.drainedBpsSeconds,
		LastReconfigEpoch:         l.lastReconfigEpoch,
		LastReason:                l.lastReason,
		CurrentTrunks:             l.current.Trunks(),
	}
}
