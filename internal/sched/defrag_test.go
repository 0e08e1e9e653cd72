package sched

import "testing"

// checkerboard fills the pod with 1-cube jobs and releases alternating
// positions, producing maximal fragmentation.
func checkerboard(t *testing.T) *Pod {
	t.Helper()
	p := FullPod()
	r := Reconfigurable{}
	for i := 0; i < 64; i++ {
		if _, err := r.Place(p, i, 1); err != nil {
			t.Fatal(err)
		}
	}
	for x := 0; x < 4; x++ {
		for y := 0; y < 4; y++ {
			for z := 0; z < 4; z++ {
				if (x+y+z)%2 == 0 {
					p.Release(p.index(x, y, z))
				}
			}
		}
	}
	return p
}

func TestDefragmentEnablesPlacement(t *testing.T) {
	p := checkerboard(t)
	c := Contiguous{}
	if _, err := c.Place(p, 900, 8); err == nil {
		t.Fatal("checkerboard should block an 8-cube box")
	}
	res := p.Defragment()
	if res.MigratedCubes == 0 {
		t.Fatal("defragmentation moved nothing")
	}
	if _, err := c.Place(p, 900, 8); err != nil {
		t.Fatalf("8-cube box still blocked after defrag: %v", err)
	}
	// Compaction leaves the free space in one piece, not merely one
	// 8-cube hole: a 16-cube box fits the 24 cubes still free.
	if _, err := c.Place(p, 901, 16); err != nil {
		t.Fatalf("16-cube box blocked after defrag: %v", err)
	}
}

func TestDefragmentPreservesJobSizes(t *testing.T) {
	p := FullPod()
	c := Contiguous{}
	sizes := map[int]int{1: 8, 2: 4, 3: 2, 4: 1}
	for j, n := range sizes {
		if _, err := c.Place(p, j, n); err != nil {
			t.Fatal(err)
		}
	}
	p.Defragment()
	got := map[int]int{}
	for cube := range p.state {
		if p.state[cube] == Busy {
			got[p.owner[cube]]++
		}
	}
	for j, n := range sizes {
		if got[j] != n {
			t.Fatalf("job %d has %d cubes after defrag, want %d", j, got[j], n)
		}
	}
}

func TestDefragmentIdempotentWhenCompact(t *testing.T) {
	p := FullPod()
	c := Contiguous{}
	_, _ = c.Place(p, 1, 32)
	_, _ = c.Place(p, 2, 16)
	p.Defragment()
	res := p.Defragment()
	if res.MigratedCubes != 0 {
		t.Fatalf("second defrag moved %d cubes", res.MigratedCubes)
	}
}

func TestContiguousWithDefragPolicy(t *testing.T) {
	p := checkerboard(t)
	migrations := 0
	d := ContiguousWithDefrag{Migrations: &migrations}
	ids, err := d.Place(p, 900, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 8 {
		t.Fatalf("ids = %v", ids)
	}
	if migrations == 0 {
		t.Fatal("no migration cost recorded")
	}
}

func TestContiguousWithDefragStillBoundByCapacity(t *testing.T) {
	p := checkerboard(t) // 32 free cubes
	d := ContiguousWithDefrag{}
	if _, err := d.Place(p, 901, 40); err == nil {
		t.Fatal("placed beyond free capacity")
	}
}

// TestDefragVsReconfigurableUtilization quantifies §4.2.4: compaction lets
// the contiguous pod approach the reconfigurable pod's utilization, but
// only by paying continual migrations, which the lightwave fabric avoids
// entirely.
func TestDefragVsReconfigurableUtilization(t *testing.T) {
	mix := ProductionMix()
	cfg := ReferenceConfig()
	cfg.Duration = 150000

	reconf, err := Simulate(FullPod(), Reconfigurable{}, mix, cfg)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Simulate(FullPod(), Contiguous{}, mix, cfg)
	if err != nil {
		t.Fatal(err)
	}
	migrations := 0
	defrag, err := Simulate(FullPod(), ContiguousWithDefrag{Migrations: &migrations}, mix, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if defrag.Utilization <= plain.Utilization {
		t.Fatalf("defrag did not improve utilization: %.3f vs %.3f",
			defrag.Utilization, plain.Utilization)
	}
	if migrations == 0 {
		t.Fatal("defrag policy recorded no migrations under load")
	}
	if reconf.Utilization < defrag.Utilization-0.01 {
		t.Fatalf("reconfigurable %.3f should match or beat defrag %.3f without migrations",
			reconf.Utilization, defrag.Utilization)
	}
}
