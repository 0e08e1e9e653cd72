package eps

import (
	"errors"
	"testing"
)

func TestNewClosTwoTier(t *testing.T) {
	c, err := NewClos(DCNChassis(), 1024, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Non-blocking: down = up = 32 ports per leaf → 32 leaves, 1024
	// leaf-spine links, 16 spines.
	if c.Leaves != 32 {
		t.Errorf("leaves = %d", c.Leaves)
	}
	if c.LeafSpineLinks != 1024 {
		t.Errorf("leaf-spine links = %d", c.LeafSpineLinks)
	}
	if c.Spines != 16 {
		t.Errorf("spines = %d", c.Spines)
	}
	if c.Supers != 0 {
		t.Errorf("supers = %d in a 2-tier fabric", c.Supers)
	}
	if c.Switches() != 48 {
		t.Errorf("switches = %d", c.Switches())
	}
}

func TestNewClosThreeTier(t *testing.T) {
	c, err := NewClos(DCNChassis(), 1024, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if c.Supers == 0 {
		t.Fatal("3-tier fabric has no supers")
	}
	if c.FabricLinks() != c.LeafSpineLinks+c.SpineSuperLinks {
		t.Fatal("FabricLinks inconsistent")
	}
}

func TestNewClosOversubscription(t *testing.T) {
	nb, _ := NewClos(DCNChassis(), 2048, 2, 1)
	os, err := NewClos(DCNChassis(), 2048, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if os.Switches() >= nb.Switches() {
		t.Fatal("oversubscribed fabric should need fewer switches")
	}
	if os.BisectionGbps() >= nb.BisectionGbps() {
		t.Fatal("oversubscription should reduce bisection bandwidth")
	}
}

func TestNewClosErrors(t *testing.T) {
	if _, err := NewClos(DCNChassis(), 0, 2, 1); !errors.Is(err, ErrInfeasible) {
		t.Errorf("err = %v", err)
	}
	if _, err := NewClos(DCNChassis(), 100, 4, 1); !errors.Is(err, ErrInfeasible) {
		t.Errorf("err = %v", err)
	}
	if _, err := NewClos(DCNChassis(), 100, 2, 0.5); !errors.Is(err, ErrInfeasible) {
		t.Errorf("err = %v", err)
	}
	if _, err := NewClos(Chassis{Radix: 1}, 100, 2, 1); !errors.Is(err, ErrInfeasible) {
		t.Errorf("err = %v", err)
	}
}

func TestPathHops(t *testing.T) {
	c2, _ := NewClos(DCNChassis(), 1024, 2, 1)
	if c2.PathHops(true, true) != 1 {
		t.Error("same-leaf hops")
	}
	if c2.PathHops(false, true) != 3 {
		t.Error("cross-leaf hops in 2-tier")
	}
	c3, _ := NewClos(DCNChassis(), 4096, 3, 1)
	if c3.PathHops(false, false) != 5 {
		t.Error("cross-pod hops in 3-tier")
	}
	if c3.PathHops(false, true) != 3 {
		t.Error("same-pod hops in 3-tier")
	}
}

func TestClosCostPowerScale(t *testing.T) {
	small, _ := NewClos(DCNChassis(), 512, 2, 1)
	big, _ := NewClos(DCNChassis(), 4096, 2, 1)
	if big.Cost() <= small.Cost() || big.Power() <= small.Power() {
		t.Fatal("bigger fabric should cost more")
	}
}
