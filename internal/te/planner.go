package te

import (
	"fmt"

	"lightwave/internal/cost"
	"lightwave/internal/dcn"
	"lightwave/internal/par"
)

// The planner runs on the production values of §2.1 and §4.2.
const (
	// minGain is the hysteresis threshold: reconfigure only when the
	// predicted throughput gain (target/current - 1 on the predicted
	// matrix) reaches it. Without it the loop would churn circuits every
	// epoch chasing noise.
	minGain = 0.02
	// capacityFloor is the minimum fraction of the fabric's trunk
	// capacity that must stay in service during every stage of a
	// reconfiguration. Plans that cannot be staged above it are held.
	capacityFloor = 0.75
	// stageOverheadSeconds is the routing drain/undrain overhead paid
	// per stage on top of the optical switching time.
	stageOverheadSeconds = 1
)

// planTech is the OCS technology whose switching time costs a plan: the
// Table C.1 MEMS row. Each stage's reprogram work is shared by the
// fabric's Uplinks OCSes.
var planTech = cost.Technologies()[0]

// PlannerConfig parameterizes the reconfiguration planner.
type PlannerConfig struct {
	Blocks, Uplinks int
	// TrunkBps is the per-trunk, per-direction rate used for throughput
	// and drained-capacity accounting.
	TrunkBps float64
}

// Stage is one drain -> OCS reprogram -> undrain step of a plan: the
// trunks in Tear are drained and torn down, the trunks in Establish come
// up, and After is the logical topology live once the stage completes.
type Stage struct {
	Tear      [][2]int
	Establish [][2]int
	// After is the post-stage topology (what Appliers program).
	After *dcn.Topology
	// Seconds is the stage's wall time: the OCS switching time for its
	// circuit changes plus the drain/undrain overhead.
	Seconds float64
	// ResidualFraction is the fraction of the fabric's trunk capacity
	// still in service while the stage runs (torn trunks are already
	// drained, new trunks are not yet up).
	ResidualFraction float64
}

// Plan is the planner's decision for one epoch.
type Plan struct {
	// Reconfigure reports whether the loop should act; when false,
	// Reason says why the planner held (hysteresis, floor, no change).
	Reconfigure bool
	Reason      string
	Target      *dcn.Topology
	Stages      []Stage
	// PredictedGain is target/current achieved throughput - 1 on the
	// predicted demand.
	PredictedGain         float64
	CurrentBps, TargetBps float64
	// Seconds is the total reconfiguration time across stages.
	Seconds float64
	// DrainedCapacityBpsSeconds integrates capacity held out of service:
	// sum over stages of drained trunks x 2 x TrunkBps x stage seconds.
	DrainedCapacityBpsSeconds float64
	// MinResidualFraction is the lowest ResidualFraction across stages
	// (1 when the plan has no stages).
	MinResidualFraction float64
}

// Planner decides when and how to reconfigure. It is stateless apart from
// its configuration; hysteresis *cooldown* (min epochs between
// reconfigurations) lives in the Loop, which owns the epoch counter.
type Planner struct {
	cfg PlannerConfig
}

// NewPlanner validates the configuration and returns a planner.
func NewPlanner(cfg PlannerConfig) (*Planner, error) {
	if cfg.Blocks < 2 || cfg.Uplinks < cfg.Blocks-1 || cfg.TrunkBps <= 0 {
		return nil, fmt.Errorf("%w: blocks=%d uplinks=%d trunk=%g",
			ErrConfig, cfg.Blocks, cfg.Uplinks, cfg.TrunkBps)
	}
	return &Planner{cfg: cfg}, nil
}

// Decide engineers a candidate topology for the predicted demand and
// returns the staged plan, or a held plan when the gain does not clear
// the hysteresis threshold or the change cannot be staged above the
// capacity floor.
func (p *Planner) Decide(current *dcn.Topology, predicted [][]float64) (*Plan, error) {
	cfg := p.cfg
	plan := &Plan{MinResidualFraction: 1}
	target, err := dcn.Engineer(cfg.Blocks, cfg.Uplinks, predicted)
	if err != nil {
		return nil, err
	}
	plan.Target = target
	if current.SameTrunks(target) {
		plan.Reason = "topology already optimal for predicted demand"
		return plan, nil
	}

	// The two fluid solves are independent; fan them out on the worker
	// pool (results collected by index, so the comparison is identical
	// at any worker count).
	tops := []*dcn.Topology{current, target}
	bps := par.Sweep("te_plan_eval", tops, func(_ int, t *dcn.Topology) float64 {
		return dcn.AchievedThroughput(t, predicted, cfg.TrunkBps)
	})
	plan.CurrentBps, plan.TargetBps = bps[0], bps[1]
	if plan.CurrentBps > 0 {
		plan.PredictedGain = plan.TargetBps/plan.CurrentBps - 1
	}
	if plan.PredictedGain < minGain {
		plan.Reason = fmt.Sprintf("predicted gain %.3f below hysteresis threshold %.3f",
			plan.PredictedGain, minGain)
		return plan, nil
	}

	stages, err := p.stagePlan(current, target)
	if err != nil {
		plan.Reason = err.Error()
		return plan, nil
	}
	plan.Stages = stages
	plan.Reconfigure = true
	plan.Reason = fmt.Sprintf("predicted gain %.3f over %d stages", plan.PredictedGain, len(stages))
	for _, st := range stages {
		plan.Seconds += st.Seconds
		plan.DrainedCapacityBpsSeconds += float64(len(st.Tear)) * 2 * cfg.TrunkBps * st.Seconds
		if st.ResidualFraction < plan.MinResidualFraction {
			plan.MinResidualFraction = st.ResidualFraction
		}
	}
	return plan, nil
}

// stagePlan splits the current->target diff into stages. Trunks present
// in both topologies are never touched (the §2.3 keep-undisturbed
// property of incremental programming); each stage tears the largest
// prefix of the remaining tears that keeps residual capacity at or above
// the floor and the intermediate topology two-hop routable for every
// pair, then establishes as many pending trunks as freed ports allow.
func (p *Planner) stagePlan(current, target *dcn.Topology) ([]Stage, error) {
	cfg := p.cfg
	n := cfg.Blocks
	var tears, adds [][2]int
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d := target.Links[i][j] - current.Links[i][j]
			for k := 0; k < d; k++ {
				adds = append(adds, [2]int{i, j})
			}
			for k := 0; k < -d; k++ {
				tears = append(tears, [2]int{i, j})
			}
		}
	}
	totalTrunks := current.Trunks()
	if totalTrunks == 0 {
		return nil, fmt.Errorf("%w: current topology has no trunks", ErrConfig)
	}

	work := current.Clone()
	var stages []Stage
	for len(tears) > 0 || len(adds) > 0 {
		var stage Stage
		// Tear phase: take tears while the floor and routability hold.
		for len(tears) > 0 {
			t0 := tears[0]
			work.Links[t0[0]][t0[1]]--
			work.Links[t0[1]][t0[0]]--
			frac := float64(work.Trunks()) / float64(totalTrunks)
			if (frac < capacityFloor || !work.AllRoutable()) && len(stage.Tear) > 0 {
				// This tear belongs to the next stage.
				work.Links[t0[0]][t0[1]]++
				work.Links[t0[1]][t0[0]]++
				break
			}
			if frac < capacityFloor || !work.AllRoutable() {
				// Even a single-trunk stage violates the floor (or
				// disconnects a pair): the plan cannot be staged safely.
				work.Links[t0[0]][t0[1]]++
				work.Links[t0[1]][t0[0]]++
				return nil, fmt.Errorf("%w: single-trunk stage drops residual capacity to %.3f (floor %.3f)",
					ErrConfig, frac, capacityFloor)
			}
			stage.Tear = append(stage.Tear, t0)
			tears = tears[1:]
		}
		stage.ResidualFraction = float64(work.Trunks()) / float64(totalTrunks)
		// Establish phase: bring up every pending trunk the freed ports
		// admit. New circuits do not disturb live traffic, so they do
		// not count against the floor.
		rest := adds[:0]
		for _, a := range adds {
			if work.Degree(a[0]) < cfg.Uplinks && work.Degree(a[1]) < cfg.Uplinks {
				work.Links[a[0]][a[1]]++
				work.Links[a[1]][a[0]]++
				stage.Establish = append(stage.Establish, a)
			} else {
				rest = append(rest, a)
			}
		}
		adds = rest
		if len(stage.Tear) == 0 && len(stage.Establish) == 0 {
			// No progress is a planner bug (a valid target always
			// admits its adds once its tears are done).
			return nil, fmt.Errorf("%w: staging made no progress (%d tears, %d adds left)",
				ErrConfig, len(tears), len(adds))
		}
		changes := len(stage.Tear) + len(stage.Establish)
		stage.Seconds = planTech.PodReconfigTime(changes, cfg.Uplinks) + stageOverheadSeconds
		stage.After = work.Clone()
		stages = append(stages, stage)
	}
	if !work.SameTrunks(target) {
		return nil, fmt.Errorf("%w: staged topology does not converge to target", ErrConfig)
	}
	return stages, nil
}
