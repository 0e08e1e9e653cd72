package topo

import "testing"

func TestShapeBasics(t *testing.T) {
	s := Shape{16, 16, 16}
	if s.Chips() != 4096 {
		t.Fatalf("Chips = %d", s.Chips())
	}
	if s.Cubes() != 64 {
		t.Fatalf("Cubes = %d", s.Cubes())
	}
	a, b, c := s.CubeGrid()
	if a != 4 || b != 4 || c != 4 {
		t.Fatalf("CubeGrid = %d,%d,%d", a, b, c)
	}
	if s.String() != "16x16x16" {
		t.Errorf("String = %q", s.String())
	}
}

func TestShapeValid(t *testing.T) {
	valid := []Shape{{4, 4, 4}, {4, 4, 256}, {16, 16, 16}, {8, 16, 32}}
	for _, s := range valid {
		if !s.Valid() {
			t.Errorf("%v should be valid", s)
		}
	}
	invalid := []Shape{{0, 4, 4}, {3, 4, 4}, {4, 4, 6}, {-4, 4, 4}}
	for _, s := range invalid {
		if s.Valid() {
			t.Errorf("%v should be invalid", s)
		}
	}
}

func TestShapesForFullPod(t *testing.T) {
	shapes := ShapesFor(64)
	// All shapes must have 64 cubes and be valid.
	want := map[Shape]bool{}
	for _, s := range shapes {
		if s.Cubes() != 64 {
			t.Fatalf("%v has %d cubes", s, s.Cubes())
		}
		if !s.Valid() {
			t.Fatalf("%v invalid", s)
		}
		want[s] = true
	}
	// §4.2.1: configurations range from 4×4×256 to 16×16×16, including
	// the Table 2 optima.
	for _, s := range []Shape{{4, 4, 256}, {16, 16, 16}, {8, 16, 32}, {4, 256, 4}} {
		if !want[s] {
			t.Errorf("shape %v missing from enumeration", s)
		}
	}
}

func TestShapesForCountsOrderedFactorizations(t *testing.T) {
	// Ordered factorizations of 8 into 3 factors: (1,1,8)(1,8,1)(8,1,1)
	// (1,2,4)(1,4,2)(2,1,4)(2,4,1)(4,1,2)(4,2,1)(2,2,2) = 10.
	if got := len(ShapesFor(8)); got != 10 {
		t.Fatalf("ShapesFor(8) = %d shapes, want 10", got)
	}
	if got := len(ShapesFor(1)); got != 1 {
		t.Fatalf("ShapesFor(1) = %d", got)
	}
}

func TestBisectionSymmetricIsBest(t *testing.T) {
	// §4.2.1: "the symmetric 16×16×16 static configuration is chosen as
	// the baseline because it has the highest bisection bandwidth among
	// all possible static configurations".
	best := MaxBisectionShape(64)
	if (best != Shape{16, 16, 16}) {
		t.Fatalf("MaxBisectionShape(64) = %v", best)
	}
	sym := Shape{16, 16, 16}.BisectionLinks()
	for _, s := range ShapesFor(64) {
		if s.BisectionLinks() > sym {
			t.Fatalf("%v has more bisection links than 16³", s)
		}
	}
}

func TestBisectionLinksValues(t *testing.T) {
	// 16³: cut across any dim severs 2·4096/16 = 512 links.
	if got := (Shape{16, 16, 16}).BisectionLinks(); got != 512 {
		t.Fatalf("16³ bisection = %d, want 512", got)
	}
	// 4×4×256: worst cut across z: 2·4096/256 = 32.
	if got := (Shape{4, 4, 256}).BisectionLinks(); got != 32 {
		t.Fatalf("4×4×256 bisection = %d, want 32", got)
	}
	if got := float64((Shape{16, 16, 16}).BisectionLinks()) * 100; got != 51200 {
		t.Fatalf("bw = %v", got)
	}
}

func TestHigherDimShapes(t *testing.T) {
	// §6 future work: 4D tori at pod scale (4096 chips).
	shapes := HigherDimShapes(4096, 4)
	if len(shapes) == 0 {
		t.Fatal("no 4D shapes")
	}
	for _, s := range shapes {
		if s.Chips() != 4096 {
			t.Fatalf("%v has %d chips", s, s.Chips())
		}
		if len(s) != 4 {
			t.Fatalf("%v not 4D", s)
		}
		for _, d := range s {
			if d < 2 {
				t.Fatalf("%v has a degenerate dimension", s)
			}
		}
	}
	if HigherDimShapes(0, 3) != nil || HigherDimShapes(4, 0) != nil {
		t.Error("degenerate inputs should return nil")
	}
}

func TestHigherDimBisectionBeats3D(t *testing.T) {
	// A 4D torus has larger bisection than the best 3D torus at the same
	// size (§6: "a 4D or 6D torus ... has a larger bisection bandwidth").
	best3 := MaxBisectionShape(64).BisectionLinks()
	best4 := 0
	for _, s := range HigherDimShapes(4096, 4) {
		if b := s.BisectionLinks(); b > best4 {
			best4 = b
		}
	}
	if best4 <= best3 {
		t.Fatalf("best 4D bisection %d not above best 3D %d", best4, best3)
	}
}

func TestShapeNDEdgeCases(t *testing.T) {
	if (ShapeND{1, 1, 1}).BisectionLinks() != 0 {
		t.Error("degenerate ND shape should have 0 bisection")
	}
	if (ShapeND{}).Chips() != 1 {
		t.Error("empty shape chips")
	}
}
