package te

import (
	"errors"
	"testing"

	"lightwave/internal/dcn"
)

func newTestPlanner(t *testing.T, cfg PlannerConfig) *Planner {
	t.Helper()
	if cfg.Blocks == 0 {
		cfg.Blocks = 8
	}
	if cfg.Uplinks == 0 {
		cfg.Uplinks = 14
	}
	if cfg.TrunkBps == 0 {
		cfg.TrunkBps = 50e9
	}
	p, err := NewPlanner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// skewed returns a saturating demand matrix with a handful of hot pairs
// over a thin background — hot enough that the uniform mesh's 2× transit
// tax bites and topology engineering pays off.
func skewed(blocks int, hot ...[2]int) [][]float64 {
	d := dcn.UniformDemand(blocks, 1e9)
	for _, h := range hot {
		d[h[0]][h[1]] += 1000e9
		d[h[1]][h[0]] += 1000e9
	}
	return d
}

func TestPlannerHoldsWhenTopologyOptimal(t *testing.T) {
	p := newTestPlanner(t, PlannerConfig{})
	demand := skewed(8, [2]int{0, 1}, [2]int{2, 3})
	target, err := dcn.Engineer(8, 14, demand)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := p.Decide(target, demand)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Reconfigure {
		t.Fatalf("planner reconfigured an already-optimal topology: %+v", plan)
	}
	if plan.MinResidualFraction != 1 {
		t.Errorf("held plan MinResidualFraction = %g, want 1", plan.MinResidualFraction)
	}
}

func TestPlannerHysteresisHoldsSmallGain(t *testing.T) {
	// An absurd threshold holds every plan.
	p := newTestPlanner(t, PlannerConfig{MinGain: 100})
	mesh, err := dcn.UniformMesh(8, 14)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := p.Decide(mesh, skewed(8, [2]int{0, 1}, [2]int{2, 3}, [2]int{4, 5}))
	if err != nil {
		t.Fatal(err)
	}
	if plan.Reconfigure {
		t.Fatalf("gain %g cleared a threshold of 100", plan.PredictedGain)
	}
	if plan.Reason == "" {
		t.Error("held plan must carry a reason")
	}
}

func TestPlannerReconfiguresOnSkew(t *testing.T) {
	p := newTestPlanner(t, PlannerConfig{})
	mesh, err := dcn.UniformMesh(8, 14)
	if err != nil {
		t.Fatal(err)
	}
	demand := skewed(8, [2]int{0, 1}, [2]int{2, 3}, [2]int{4, 5})
	plan, err := p.Decide(mesh, demand)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Reconfigure {
		t.Fatalf("planner held on strong skew: %s (gain %g)", plan.Reason, plan.PredictedGain)
	}
	if plan.PredictedGain <= 0 {
		t.Errorf("gain = %g, want > 0", plan.PredictedGain)
	}
	if plan.TargetBps <= plan.CurrentBps {
		t.Errorf("target %g <= current %g", plan.TargetBps, plan.CurrentBps)
	}
	if plan.Seconds <= 0 || plan.DrainedCapacityBpsSeconds <= 0 {
		t.Errorf("plan costs not populated: %g s, %g bps-s", plan.Seconds, plan.DrainedCapacityBpsSeconds)
	}

	cfg := p.cfg
	if len(plan.Stages) == 0 {
		t.Fatal("reconfiguring plan has no stages")
	}
	work := cloneTopology(mesh)
	total := trunkCount(mesh)
	for si, st := range plan.Stages {
		for _, tr := range st.Tear {
			work.Links[tr[0]][tr[1]]--
			work.Links[tr[1]][tr[0]]--
		}
		frac := float64(trunkCount(work)) / float64(total)
		if frac < cfg.CapacityFloor-1e-9 {
			t.Fatalf("stage %d residual %g below floor %g", si, frac, cfg.CapacityFloor)
		}
		if st.ResidualFraction < cfg.CapacityFloor-1e-9 {
			t.Fatalf("stage %d reports residual %g below floor %g", si, st.ResidualFraction, cfg.CapacityFloor)
		}
		if !allPairsRoutable(work) {
			t.Fatalf("stage %d drained topology loses two-hop routability", si)
		}
		for _, ad := range st.Establish {
			work.Links[ad[0]][ad[1]]++
			work.Links[ad[1]][ad[0]]++
		}
		if !sameLinks(work, st.After) {
			t.Fatalf("stage %d After does not match the replayed tear/establish sets", si)
		}
		if err := st.After.Validate(); err != nil {
			t.Fatalf("stage %d After invalid: %v", si, err)
		}
		if st.Seconds <= 0 {
			t.Fatalf("stage %d has non-positive duration", si)
		}
	}
	if !sameLinks(work, plan.Target) {
		t.Fatal("stages do not converge to the target topology")
	}
	if plan.MinResidualFraction < cfg.CapacityFloor-1e-9 {
		t.Errorf("MinResidualFraction %g below floor %g", plan.MinResidualFraction, cfg.CapacityFloor)
	}
}

func TestPlannerImpossibleFloorHolds(t *testing.T) {
	// With a floor this tight, any multi-trunk shift between two very
	// different topologies must be rejected, not violated.
	p := newTestPlanner(t, PlannerConfig{CapacityFloor: 0.999})
	mesh, err := dcn.UniformMesh(8, 14)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := p.Decide(mesh, skewed(8, [2]int{0, 1}, [2]int{2, 3}, [2]int{4, 5}))
	if err != nil {
		t.Fatal(err)
	}
	if plan.Reconfigure {
		t.Fatalf("plan staged %d trunk moves under a 0.999 floor", len(plan.Stages))
	}
}

func TestPlannerConfigErrors(t *testing.T) {
	if _, err := NewPlanner(PlannerConfig{Blocks: 1, Uplinks: 4, TrunkBps: 1}); !errors.Is(err, ErrConfig) {
		t.Errorf("1 block: err = %v, want ErrConfig", err)
	}
	if _, err := NewPlanner(PlannerConfig{Blocks: 8, Uplinks: 3, TrunkBps: 1}); !errors.Is(err, ErrConfig) {
		t.Errorf("too few uplinks: err = %v, want ErrConfig", err)
	}
	if _, err := NewPlanner(PlannerConfig{Blocks: 8, Uplinks: 14}); !errors.Is(err, ErrConfig) {
		t.Errorf("zero trunk rate: err = %v, want ErrConfig", err)
	}
}
