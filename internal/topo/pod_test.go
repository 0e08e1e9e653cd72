package topo

import (
	"errors"
	"testing"
)

func TestPodConstants(t *testing.T) {
	if CubeChips != 64 || FaceLinks != 16 || HostsPerCube != 16 {
		t.Fatal("cube constants wrong")
	}
	if NumOCS != 48 {
		t.Fatalf("NumOCS = %d, want 48 (Appendix A)", NumOCS)
	}
}

func TestNewPodBounds(t *testing.T) {
	if _, err := NewPod(64); err != nil {
		t.Fatal(err)
	}
	if _, err := NewPod(0); err == nil {
		t.Error("0 cubes accepted")
	}
	if _, err := NewPod(65); err == nil {
		t.Error("65 cubes accepted")
	}
}

func TestOCSForMapping(t *testing.T) {
	o, err := OCSFor(2, 15)
	if err != nil {
		t.Fatal(err)
	}
	if o != 47 {
		t.Fatalf("OCSFor(2,15) = %d", o)
	}
	if o.DimOf() != 2 || o.IndexOf() != 15 {
		t.Fatalf("round trip broken: dim %d idx %d", o.DimOf(), o.IndexOf())
	}
	if _, err := OCSFor(3, 0); err == nil {
		t.Error("dim 3 accepted")
	}
	if _, err := OCSFor(0, 16); err == nil {
		t.Error("idx 16 accepted")
	}
}

func TestOCSForDistinct(t *testing.T) {
	seen := map[OCSID]bool{}
	for d := 0; d < 3; d++ {
		for i := 0; i < FaceLinks; i++ {
			o, _ := OCSFor(d, i)
			if seen[o] {
				t.Fatalf("OCS %d assigned twice", o)
			}
			seen[o] = true
		}
	}
	if len(seen) != NumOCS {
		t.Fatalf("%d distinct OCSes", len(seen))
	}
}

func seqCubes(n int) []int {
	c := make([]int, n)
	for i := range c {
		c[i] = i
	}
	return c
}

func TestComposeSliceErrors(t *testing.T) {
	if _, err := ComposeSlice(Shape{5, 4, 4}, seqCubes(1)); !errors.Is(err, ErrBadShape) {
		t.Errorf("err = %v", err)
	}
	if _, err := ComposeSlice(Shape{8, 8, 8}, seqCubes(3)); !errors.Is(err, ErrCubeCount) {
		t.Errorf("err = %v", err)
	}
	if _, err := ComposeSlice(Shape{8, 4, 4}, []int{1, 1}); !errors.Is(err, ErrDupCube) {
		t.Errorf("err = %v", err)
	}
}

func TestComposeSliceNonContiguous(t *testing.T) {
	// §4.2.4: "a set of four idle, not-necessarily-contiguous 4×4×4
	// elemental cubes" can form a 256-chip slice.
	cubes := []int{7, 23, 41, 60}
	sl, err := ComposeSlice(Shape{4, 4, 16}, cubes)
	if err != nil {
		t.Fatal(err)
	}
	got := sl.Cubes()
	for i, c := range cubes {
		if got[i] != c {
			t.Fatalf("Cubes() = %v", got)
		}
	}
}

func TestRequiredCircuitsSingleCube(t *testing.T) {
	// A single-cube slice still needs wraparound circuits: each face index
	// of each dimension loops the cube's + face to its own − face.
	sl, err := ComposeSlice(Shape{4, 4, 4}, []int{9})
	if err != nil {
		t.Fatal(err)
	}
	reqs := sl.RequiredCircuits()
	if len(reqs) != 48 {
		t.Fatalf("%d circuits, want 48 (3 dims × 16 indices)", len(reqs))
	}
	for _, r := range reqs {
		if r.North != 9 || r.South != 9 {
			t.Fatalf("self-wrap circuit %+v", r)
		}
	}
}

func TestRequiredCircuitsCount(t *testing.T) {
	shapes := []Shape{{4, 4, 16}, {8, 8, 8}, {16, 16, 16}}
	for _, s := range shapes {
		sl, err := ComposeSlice(s, seqCubes(s.Cubes()))
		if err != nil {
			t.Fatal(err)
		}
		if got := len(sl.RequiredCircuits()); got != CircuitsPerSlice(s) {
			t.Fatalf("%v: %d circuits, want %d", s, got, CircuitsPerSlice(s))
		}
	}
	// Full pod: 3 × 16 × 64 = 3072 circuits, i.e. 64 per OCS across 48
	// OCSes — exactly the usable port count of each 128-port OCS.
	if got := CircuitsPerSlice(Shape{16, 16, 16}); got != 3072 {
		t.Fatalf("full pod circuits = %d", got)
	}
}

func TestRequiredCircuitsArePerOCSPermutations(t *testing.T) {
	// On each OCS, every cube appears at most once as north and once as
	// south — otherwise the circuits would collide on physical ports.
	sl, err := ComposeSlice(Shape{8, 16, 8}, seqCubes(Shape{8, 16, 8}.Cubes()))
	if err != nil {
		t.Fatal(err)
	}
	type key struct {
		o OCSID
		p int
	}
	north := map[key]bool{}
	south := map[key]bool{}
	for _, r := range sl.RequiredCircuits() {
		kn := key{r.OCS, r.North}
		ks := key{r.OCS, r.South}
		if north[kn] {
			t.Fatalf("north port %d reused on OCS %d", r.North, r.OCS)
		}
		if south[ks] {
			t.Fatalf("south port %d reused on OCS %d", r.South, r.OCS)
		}
		north[kn] = true
		south[ks] = true
	}
}

func TestRequiredCircuitsFormRings(t *testing.T) {
	// Along each dimension the circuits on one OCS must form closed rings
	// covering all slice cubes (follow north→south pointers).
	s := Shape{8, 8, 16}
	sl, err := ComposeSlice(s, seqCubes(s.Cubes()))
	if err != nil {
		t.Fatal(err)
	}
	// Collect the successor map of OCS (dim 2, idx 0).
	o, _ := OCSFor(2, 0)
	next := map[int]int{}
	for _, r := range sl.RequiredCircuits() {
		if r.OCS == o {
			next[r.North] = r.South
		}
	}
	if len(next) != s.Cubes() {
		t.Fatalf("OCS has %d circuits, want one per cube", len(next))
	}
	// Every cube must be on a cycle of length = cubes along dim 2 (= 4).
	_, _, czs := s.CubeGrid()
	for start := range next {
		cur, steps := start, 0
		for {
			cur = next[cur]
			steps++
			if cur == start {
				break
			}
			if steps > s.Cubes() {
				t.Fatal("broken ring")
			}
		}
		if steps != czs {
			t.Fatalf("ring length %d, want %d", steps, czs)
		}
	}
}

func TestCircuitsPerSliceScalesWithCubes(t *testing.T) {
	small := CircuitsPerSlice(Shape{4, 4, 16})
	big := CircuitsPerSlice(Shape{16, 16, 16})
	if big != 16*small {
		t.Fatalf("scaling broken: %d vs %d", small, big)
	}
}

// Cubes returns the physical cube IDs of the slice in row-major order.
func (sl *Slice) Cubes() []int {
	a, b, c := sl.Shape.CubeGrid()
	out := make([]int, 0, a*b*c)
	for x := 0; x < a; x++ {
		for y := 0; y < b; y++ {
			for z := 0; z < c; z++ {
				out = append(out, sl.CubeAt[x][y][z])
			}
		}
	}
	return out
}

// CircuitsPerSlice returns the number of OCS circuits a slice of the given
// shape needs without materializing them.
func CircuitsPerSlice(shape Shape) int {
	a, b, c := shape.CubeGrid()
	// Rings along each dimension: every cube has one outgoing + link per
	// dimension per face index.
	return 3 * FaceLinks * a * b * c
}
