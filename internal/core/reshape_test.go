package core

import (
	"errors"
	"testing"

	"lightwave/internal/topo"
)

func TestReshapeSameCubes(t *testing.T) {
	f := newFabric(t, 8)
	_, err := f.ComposeSlice("job", topo.Shape{X: 4, Y: 4, Z: 16}, []int{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	s, err := f.ReshapeSlice("job", topo.Shape{X: 4, Y: 8, Z: 8}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.Shape != (topo.Shape{X: 4, Y: 8, Z: 8}) {
		t.Fatalf("shape = %v", s.Shape)
	}
	// All new circuits live, no stale circuits anywhere.
	if f.TotalCircuits() != len(s.Circuits) {
		t.Fatalf("fleet has %d circuits, slice expects %d", f.TotalCircuits(), len(s.Circuits))
	}
	for _, r := range s.Circuits {
		sw, _ := f.Switch(r.OCS)
		if got, ok := sw.ConnectionOf(f.PortFor(r.OCS, r.North)); !ok || got != f.PortFor(r.OCS, r.South) {
			t.Fatalf("circuit %+v missing after reshape", r)
		}
	}
}

func TestReshapeGrow(t *testing.T) {
	f := newFabric(t, 8)
	if _, err := f.ComposeSlice("job", topo.Shape{X: 4, Y: 4, Z: 8}, []int{0, 1}); err != nil {
		t.Fatal(err)
	}
	s, err := f.ReshapeSlice("job", topo.Shape{X: 4, Y: 4, Z: 16}, []int{0, 1, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Cubes) != 4 {
		t.Fatalf("cubes = %v", s.Cubes)
	}
	if len(f.FreeCubes()) != 4 {
		t.Fatalf("free = %v", f.FreeCubes())
	}
}

func TestReshapeShrinkFreesCubes(t *testing.T) {
	f := newFabric(t, 8)
	if _, err := f.ComposeSlice("job", topo.Shape{X: 4, Y: 4, Z: 16}, []int{0, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.ReshapeSlice("job", topo.Shape{X: 4, Y: 4, Z: 8}, []int{0, 1}); err != nil {
		t.Fatal(err)
	}
	free := f.FreeCubes()
	if len(free) != 6 {
		t.Fatalf("free = %v", free)
	}
	// Cubes 2,3 released and reusable.
	if _, err := f.ComposeSlice("other", topo.Shape{X: 4, Y: 4, Z: 8}, []int{2, 3}); err != nil {
		t.Fatal(err)
	}
}

func TestReshapeDoesNotDisturbOtherSlices(t *testing.T) {
	f := newFabric(t, 12)
	other, err := f.ComposeSlice("other", topo.Shape{X: 4, Y: 4, Z: 16}, []int{8, 9, 10, 11})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.ComposeSlice("job", topo.Shape{X: 4, Y: 4, Z: 16}, []int{0, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.ReshapeSlice("job", topo.Shape{X: 8, Y: 8, Z: 4}, nil); err != nil {
		t.Fatal(err)
	}
	for _, r := range other.Circuits {
		sw, _ := f.Switch(r.OCS)
		if got, ok := sw.ConnectionOf(f.PortFor(r.OCS, r.North)); !ok || got != f.PortFor(r.OCS, r.South) {
			t.Fatal("other slice disturbed by reshape")
		}
	}
}

func TestReshapeKeepsSharedCircuits(t *testing.T) {
	// Wraparound self-circuits along unchanged dimensions are shared
	// between configurations and must not flap (their loss is unchanged).
	f := newFabric(t, 8)
	s, err := f.ComposeSlice("job", topo.Shape{X: 4, Y: 4, Z: 16}, []int{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	// Record the loss of a circuit that survives (X self-wrap of cube 0).
	var keep topo.CircuitReq
	found := false
	for _, r := range s.Circuits {
		if r.OCS.DimOf() == 0 && r.North == 0 && r.South == 0 {
			keep = r
			found = true
			break
		}
	}
	if !found {
		t.Fatal("no X self-wrap circuit found")
	}
	lossBefore := circuitLoss(t, f, keep)
	// Reorder the Z ring (reverse cube order): X wraps survive.
	if _, err := f.ReshapeSlice("job", topo.Shape{X: 4, Y: 4, Z: 16}, []int{3, 2, 1, 0}); err != nil {
		t.Fatal(err)
	}
	if got := circuitLoss(t, f, keep); got != lossBefore {
		t.Fatalf("shared circuit realigned: %v -> %v", lossBefore, got)
	}
}

func circuitLoss(t *testing.T, f *Fabric, r topo.CircuitReq) float64 {
	t.Helper()
	sw, _ := f.Switch(r.OCS)
	for _, c := range sw.Circuits() {
		if int(c.North) == r.North && int(c.South) == r.South {
			return c.InsertionLossDB
		}
	}
	t.Fatalf("circuit %+v not found", r)
	return 0
}

func TestReshapeValidation(t *testing.T) {
	f := newFabric(t, 4)
	if _, err := f.ReshapeSlice("nope", topo.Shape{X: 4, Y: 4, Z: 4}, nil); !errors.Is(err, ErrNoSlice) {
		t.Errorf("err = %v", err)
	}
	if _, err := f.ComposeSlice("a", topo.Shape{X: 4, Y: 4, Z: 4}, []int{0}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.ComposeSlice("b", topo.Shape{X: 4, Y: 4, Z: 4}, []int{1}); err != nil {
		t.Fatal(err)
	}
	// Growing onto another slice's cube is rejected.
	if _, err := f.ReshapeSlice("a", topo.Shape{X: 4, Y: 4, Z: 8}, []int{0, 1}); !errors.Is(err, ErrCubeBusy) {
		t.Errorf("err = %v", err)
	}
	// Wrong cube count for the shape.
	if _, err := f.ReshapeSlice("a", topo.Shape{X: 4, Y: 4, Z: 8}, nil); err == nil {
		t.Error("cube-count mismatch accepted")
	}
	// Slice must be intact after failed reshapes.
	if f.TotalCircuits() != 96 {
		t.Fatalf("circuits = %d after rejected reshapes", f.TotalCircuits())
	}
}

// TestWorstMarginFollowsCurrentCircuits: a slice that was reshaped and had
// a cube swapped must report the same WorstMarginDB as one composed
// directly in its final form on a fresh fabric — the margin is a function
// of the circuits the slice holds, not of the ones it used to hold. (A
// snapshot restore rebuilds slices directly in their final form, so a
// history-dependent margin would not survive a restart.)
func TestWorstMarginFollowsCurrentCircuits(t *testing.T) {
	f := newFabric(t, 12)
	if _, err := f.ComposeSlice("job", topo.Shape{X: 4, Y: 4, Z: 16}, []int{0, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.ReshapeSlice("job", topo.Shape{X: 4, Y: 8, Z: 8}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := f.MarkCubeFailed(1); err != nil {
		t.Fatal(err)
	}
	s, err := f.GetSlice("job")
	if err != nil {
		t.Fatal(err)
	}

	direct, err := newFabric(t, 12).ComposeSlice("job", s.Shape, s.Cubes)
	if err != nil {
		t.Fatal(err)
	}
	if s.WorstMarginDB != direct.WorstMarginDB {
		t.Fatalf("margin after reshape+swap = %v, composed directly = %v", s.WorstMarginDB, direct.WorstMarginDB)
	}
}
