package te

import (
	"errors"
	"strings"
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
	// A light demand with one warm pair: the engineered target differs
	// from the mesh, but both carry all of it, so the gain (zero) stays
	// under the hysteresis threshold and the plan holds.
	p := newTestPlanner(t, PlannerConfig{})
	mesh, err := dcn.UniformMesh(8, 14)
	if err != nil {
		t.Fatal(err)
	}
	demand := dcn.UniformDemand(8, 1e9)
	demand[0][1] += 1e9
	demand[1][0] += 1e9
	plan, err := p.Decide(mesh, demand)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Reconfigure {
		t.Fatalf("gain %g cleared the %g threshold", plan.PredictedGain, minGain)
	}
	if mesh.SameTrunks(plan.Target) {
		t.Fatal("target equals the mesh; the hold is not hysteresis")
	}
	if plan.PredictedGain >= minGain || !strings.Contains(plan.Reason, "hysteresis") {
		t.Errorf("gain %g, reason %q: want a hysteresis hold under %g", plan.PredictedGain, plan.Reason, minGain)
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

	if len(plan.Stages) == 0 {
		t.Fatal("reconfiguring plan has no stages")
	}
	work := mesh.Clone()
	total := mesh.Trunks()
	for si, st := range plan.Stages {
		for _, tr := range st.Tear {
			work.Links[tr[0]][tr[1]]--
			work.Links[tr[1]][tr[0]]--
		}
		frac := float64(work.Trunks()) / float64(total)
		if frac < capacityFloor-1e-9 {
			t.Fatalf("stage %d residual %g below floor %g", si, frac, capacityFloor)
		}
		if st.ResidualFraction < capacityFloor-1e-9 {
			t.Fatalf("stage %d reports residual %g below floor %g", si, st.ResidualFraction, capacityFloor)
		}
		if !work.AllRoutable() {
			t.Fatalf("stage %d drained topology loses two-hop routability", si)
		}
		for _, ad := range st.Establish {
			work.Links[ad[0]][ad[1]]++
			work.Links[ad[1]][ad[0]]++
		}
		if !work.SameTrunks(st.After) {
			t.Fatalf("stage %d After does not match the replayed tear/establish sets", si)
		}
		if err := st.After.Validate(); err != nil {
			t.Fatalf("stage %d After invalid: %v", si, err)
		}
		if st.Seconds <= 0 {
			t.Fatalf("stage %d has non-positive duration", si)
		}
	}
	if !work.SameTrunks(plan.Target) {
		t.Fatal("stages do not converge to the target topology")
	}
	if plan.MinResidualFraction < capacityFloor-1e-9 {
		t.Errorf("MinResidualFraction %g below floor %g", plan.MinResidualFraction, capacityFloor)
	}
}

func TestPlannerImpossibleFloorHolds(t *testing.T) {
	// A three-trunk fabric: 0=1 doubled, 0-2 single, and 1 reaches 2
	// only through 0. Demand between 1 and 2 wants a direct trunk, which
	// needs 0=1 torn first, and one tear leaves 2/3 of the trunks — below
	// the floor. The plan must be held, not staged through the floor.
	p := newTestPlanner(t, PlannerConfig{Blocks: 3, Uplinks: 3})
	current := &dcn.Topology{Blocks: 3, UplinksPerBlock: 3, Links: [][]int{
		{0, 2, 1},
		{2, 0, 0},
		{1, 0, 0},
	}}
	demand := dcn.UniformDemand(3, 1e9)
	demand[1][2] += 1000e9
	demand[2][1] += 1000e9
	plan, err := p.Decide(current, demand)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Reconfigure {
		t.Fatalf("plan staged %d stages through a %g floor", len(plan.Stages), capacityFloor)
	}
	if !strings.Contains(plan.Reason, "floor") {
		t.Errorf("reason %q, want the capacity floor", plan.Reason)
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
