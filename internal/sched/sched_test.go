package sched

import (
	"errors"
	"testing"
)

func TestPodBasics(t *testing.T) {
	p := FullPod()
	if p.Cubes() != 64 || p.FreeCubes() != 64 || p.BusyCubes() != 0 {
		t.Fatalf("fresh pod: %d/%d/%d", p.Cubes(), p.FreeCubes(), p.BusyCubes())
	}
	if _, err := NewPod([3]int{0, 4, 4}); err == nil {
		t.Fatal("degenerate grid accepted")
	}
}

func TestReconfigurablePlacesAnywhere(t *testing.T) {
	p := FullPod()
	r := Reconfigurable{}
	ids, err := r.Place(p, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 10 || p.BusyCubes() != 10 {
		t.Fatalf("ids=%v busy=%d", ids, p.BusyCubes())
	}
	// Fill the rest and confirm exhaustion error.
	if _, err := r.Place(p, 2, 54); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Place(p, 3, 1); !errors.Is(err, ErrNotPlaced) {
		t.Fatalf("err = %v", err)
	}
}

func TestReleaseFreesExactly(t *testing.T) {
	p := FullPod()
	r := Reconfigurable{}
	ids1, _ := r.Place(p, 1, 5)
	_, _ = r.Place(p, 2, 5)
	freed := p.Release(1)
	if len(freed) != len(ids1) {
		t.Fatalf("freed %d, want %d", len(freed), len(ids1))
	}
	if p.BusyCubes() != 5 {
		t.Fatalf("busy = %d after release", p.BusyCubes())
	}
}

func TestContiguousNeedsBox(t *testing.T) {
	p := FullPod()
	c := Contiguous{}
	ids, err := c.Place(p, 1, 8) // 2×2×2 box
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 8 {
		t.Fatalf("ids = %v", ids)
	}
}

func TestContiguousSuffersFragmentation(t *testing.T) {
	// Checkerboard the pod with 1-cube jobs, then free half: 32 free cubes
	// but no contiguous 2×2×2 region.
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
	if p.FreeCubes() != 32 {
		t.Fatalf("free = %d", p.FreeCubes())
	}
	c := Contiguous{}
	if _, err := c.Place(p, 999, 8); !errors.Is(err, ErrNotPlaced) {
		t.Fatalf("contiguous placed into checkerboard: %v", err)
	}
	// The reconfigurable fabric places the same job trivially — the core
	// §4.2.4 advantage.
	if _, err := r.Place(p, 999, 8); err != nil {
		t.Fatalf("reconfigurable failed on 32 free cubes: %v", err)
	}
}

func TestContiguousAfterDefragmentation(t *testing.T) {
	// If the free cubes are compact, contiguous placement succeeds.
	p := FullPod()
	c := Contiguous{}
	if _, err := c.Place(p, 1, 32); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Place(p, 2, 32); err != nil {
		t.Fatalf("second half-pod box: %v", err)
	}
}

func TestFailAndRepair(t *testing.T) {
	p := FullPod()
	r := Reconfigurable{}
	_, _ = r.Place(p, 7, 4)
	job, busy, err := p.Fail(0)
	if err != nil {
		t.Fatal(err)
	}
	if !busy || job != 7 {
		t.Fatalf("fail: job=%d busy=%v", job, busy)
	}
	if err := p.Repair(0); err != nil {
		t.Fatal(err)
	}
	if err := p.Repair(0); err == nil {
		t.Fatal("double repair accepted")
	}
	if _, _, err := p.Fail(99); !errors.Is(err, ErrBadCube) {
		t.Fatalf("err = %v", err)
	}
}

func TestSwapCube(t *testing.T) {
	p := FullPod()
	r := Reconfigurable{}
	_, _ = r.Place(p, 1, 4)
	_, _, _ = p.Fail(0)
	cube, err := p.SwapCube(1)
	if err != nil {
		t.Fatal(err)
	}
	if p.owner[cube] != 1 {
		t.Fatal("swap did not assign ownership")
	}
	// Busy count restored to 4.
	if p.BusyCubes() != 4 {
		t.Fatalf("busy = %d", p.BusyCubes())
	}
}

func TestBoxesForOrderedByCompactness(t *testing.T) {
	boxes := boxesFor(8, [3]int{4, 4, 4})
	if len(boxes) == 0 {
		t.Fatal("no boxes for 8 cubes")
	}
	if boxes[0] != [3]int{2, 2, 2} {
		t.Fatalf("most compact box = %v, want 2×2×2", boxes[0])
	}
	for i := 1; i < len(boxes); i++ {
		if surface(boxes[i]) < surface(boxes[i-1]) {
			t.Fatal("boxes not ordered by compactness")
		}
	}
}

func TestBoxesForRespectsGrid(t *testing.T) {
	for _, b := range boxesFor(16, [3]int{4, 4, 4}) {
		if b[0] > 4 || b[1] > 4 || b[2] > 4 {
			t.Fatalf("box %v exceeds grid", b)
		}
		if b[0]*b[1]*b[2] != 16 {
			t.Fatalf("box %v wrong volume", b)
		}
	}
}

// TestRefusalWording pins the refusal texts (fleet and lwfctl print them)
// to what the eager fmt.Errorf calls used to produce, and their identity
// as ErrNotPlaced.
func TestRefusalWording(t *testing.T) {
	p := checkerboard(t)
	for _, tc := range []struct {
		placer Placer
		cubes  int
		want   string
	}{
		{Reconfigurable{}, 40, "sched: job does not fit: need 40 cubes, 32 free"},
		{Reconfigurable{}, 100, "sched: job does not fit: need 100 cubes, 32 free"},
		{Contiguous{}, 8, "sched: job does not fit: no free 8-cube box"},
		{Contiguous{}, 100, "sched: job does not fit: no free 100-cube box"},
		{ContiguousWithDefrag{}, 40, "sched: job does not fit: no free 40-cube box"},
	} {
		_, err := tc.placer.Place(p, 1, tc.cubes)
		if err == nil || err.Error() != tc.want || !errors.Is(err, ErrNotPlaced) {
			t.Errorf("%s.Place(%d) refused with %v, want %q wrapping ErrNotPlaced", tc.placer.Name(), tc.cubes, err, tc.want)
		}
	}
}

func TestNewPodBounds(t *testing.T) {
	for _, grid := range [][3]int{{4, 4, 5}, {65, 1, 1}, {0, 4, 4}, {-1, -1, 4}} {
		if _, err := NewPod(grid); err == nil {
			t.Errorf("NewPod(%v) accepted", grid)
		}
	}
	p, err := NewPod([3]int{64, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if ids, err := (Contiguous{}).Place(p, 1, 64); err != nil || len(ids) != 64 || p.FreeCubes() != 0 {
		t.Fatalf("64-cube row: placed %d cubes (%v), %d free", len(ids), err, p.FreeCubes())
	}
}

func TestFullPodWithFree(t *testing.T) {
	p, err := FullPodWithFree([]int{0, 1, 4, 5, 63})
	if err != nil {
		t.Fatal(err)
	}
	if p.FreeCubes() != 5 || p.BusyCubes() != 0 || p.State(2) != Failed || p.State(63) != Free {
		t.Fatalf("free %d busy %d state(2) %v state(63) %v", p.FreeCubes(), p.BusyCubes(), p.State(2), p.State(63))
	}
	// Cubes 0, 1, 4, 5 are a 1×2×2 box.
	if ids, err := (Contiguous{}).Place(p, 1, 4); err != nil || len(ids) != 4 || ids[3] != 5 {
		t.Fatalf("Place = (%v, %v)", ids, err)
	}
	if _, err := FullPodWithFree([]int{64}); !errors.Is(err, ErrBadCube) {
		t.Fatalf("cube 64 accepted: %v", err)
	}
}
