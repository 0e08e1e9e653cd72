package sched

import (
	"reflect"
	"testing"

	"lightwave/internal/sim"
)

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

// TestDefragmentIdempotent is half of the Placer contract the scheduler's
// refused-size skip rests on: compacting a compacted pod moves nothing and
// leaves every cube as it was — pinned jobs included, since each planning
// round sees the same pins on the same cubes as the pass before.
func TestDefragmentIdempotent(t *testing.T) {
	rng := sim.NewRand(21)
	for _, grid := range [][3]int{{4, 4, 4}, {1, 1, 8}, {2, 3, 5}, {8, 8, 1}} {
		p, err := NewPod(grid)
		if err != nil {
			t.Fatal(err)
		}
		pins := 0
		for step := 0; step < 300; step++ {
			switch rng.Intn(4) {
			case 0, 1:
				// Scattered cubes, so compaction has work and pins to make.
				_, _ = Reconfigurable{}.Place(p, step, 1+rng.Intn(4))
			case 2:
				p.Release(rng.Intn(step + 1))
			case 3:
				if c := rng.Intn(p.Cubes()); p.State(c) == Failed {
					_ = p.Repair(c)
				} else if job, wasBusy, _ := p.Fail(c); wasBusy {
					p.Release(job)
				}
			}
			first := p.Defragment()
			pins += first.Unmovable
			state := append([]CubeState(nil), p.state...)
			owner := append([]int(nil), p.owner...)
			free, busy := p.free, p.busy
			second := p.Defragment()
			if second.MigratedCubes != 0 || second.Jobs != 0 || len(second.Moves) != 0 || second.Unmovable != first.Unmovable {
				t.Fatalf("grid %v step %d: second pass %+v after first %+v", grid, step, second, first)
			}
			if !reflect.DeepEqual(p.state, state) || !reflect.DeepEqual(p.owner, owner) || p.free != free || p.busy != busy {
				t.Fatalf("grid %v step %d: second pass changed the pod", grid, step)
			}
		}
		if grid[0] == 1 && pins == 0 {
			t.Fatalf("grid %v: no pass pinned a job; the pinned case is untested", grid)
		}
	}
}

// TestPlaceVerdictIgnoresJobAndHistory is the other half: what a built-in
// policy answers depends on the pod's state and the cube count only, and a
// refusal by Reconfigurable or Contiguous leaves the pod untouched.
func TestPlaceVerdictIgnoresJobAndHistory(t *testing.T) {
	for _, placer := range []Placer{Reconfigurable{}, Contiguous{}, ContiguousWithDefrag{}} {
		a, b := checkerboard(t), checkerboard(t)
		for _, size := range []int{40, 8, 3, 1, 40} {
			// b is asked twice as often, under other job ids.
			if _, err := placer.Place(b, 5000+size, 64); err == nil {
				t.Fatalf("%s placed 64 cubes on a half-full pod", placer.Name())
			}
			ga, ea := placer.Place(a, 1000+size, size)
			gb, eb := placer.Place(b, 2000+size, size)
			if !reflect.DeepEqual(ga, gb) || (ea == nil) != (eb == nil) {
				t.Fatalf("%s size %d: (%v, %v) vs (%v, %v)", placer.Name(), size, ga, ea, gb, eb)
			}
			if !reflect.DeepEqual(a.state, b.state) || a.free != b.free {
				t.Fatalf("%s size %d: pods diverged", placer.Name(), size)
			}
		}
	}
}
