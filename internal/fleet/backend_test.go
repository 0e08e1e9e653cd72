package fleet

import (
	"testing"
	"time"

	"lightwave/internal/core"
	"lightwave/internal/sched"
	"lightwave/internal/topo"
)

func fabricBackend(t *testing.T, cubes int, placer sched.Placer) *FabricBackend {
	t.Helper()
	f, err := core.New(core.DefaultConfig(cubes))
	if err != nil {
		t.Fatal(err)
	}
	return NewFabricBackend(f, placer)
}

func TestFabricBackendAutoPlacement(t *testing.T) {
	b := fabricBackend(t, 8, nil)
	changed, err := b.Ensure("j", topo.Shape{X: 4, Y: 4, Z: 8}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !changed {
		t.Fatal("fresh ensure reported unchanged")
	}
	sl, err := b.f.GetSlice("j")
	if err != nil {
		t.Fatal(err)
	}
	if len(sl.Cubes) != 2 {
		t.Fatalf("placed cubes = %v", sl.Cubes)
	}
	// Idempotent re-ensure.
	changed, err = b.Ensure("j", topo.Shape{X: 4, Y: 4, Z: 8}, nil)
	if err != nil || changed {
		t.Fatalf("re-ensure: changed=%v err=%v", changed, err)
	}
	info := b.Info()
	if info.InstalledCubes != 8 || info.FreeCubes != 6 || len(info.Slices) != 1 {
		t.Fatalf("info = %+v", info)
	}
}

func TestFabricBackendResizePlacesFreshCubes(t *testing.T) {
	b := fabricBackend(t, 8, nil)
	if _, err := b.Ensure("j", topo.Shape{X: 4, Y: 4, Z: 8}, nil); err != nil {
		t.Fatal(err)
	}
	// Growing the slice needs a new placement (2 → 4 cubes).
	changed, err := b.Ensure("j", topo.Shape{X: 4, Y: 4, Z: 16}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !changed {
		t.Fatal("resize reported unchanged")
	}
	sl, err := b.f.GetSlice("j")
	if err != nil {
		t.Fatal(err)
	}
	if len(sl.Cubes) != 4 || sl.Shape != (topo.Shape{X: 4, Y: 4, Z: 16}) {
		t.Fatalf("resized slice = %+v", sl)
	}
}

func TestFabricBackendPlacementExhaustion(t *testing.T) {
	b := fabricBackend(t, 2, nil)
	if _, err := b.Ensure("big", topo.Shape{X: 4, Y: 4, Z: 16}, nil); err == nil {
		t.Fatal("4-cube slice placed on a 2-cube pod")
	}
}

func TestFabricBackendExplicitCubesAndDestroy(t *testing.T) {
	b := fabricBackend(t, 8, sched.Contiguous{})
	changed, err := b.Ensure("j", topo.Shape{X: 4, Y: 4, Z: 8}, []int{5, 6})
	if err != nil || !changed {
		t.Fatalf("explicit ensure: changed=%v err=%v", changed, err)
	}
	sl, err := b.f.GetSlice("j")
	if err != nil {
		t.Fatal(err)
	}
	if sl.Cubes[0] != 5 || sl.Cubes[1] != 6 {
		t.Fatalf("cubes = %v", sl.Cubes)
	}
	if err := b.Destroy("j"); err != nil {
		t.Fatal(err)
	}
	if err := b.Destroy("j"); err != nil {
		t.Fatalf("destroy of absent slice: %v", err)
	}
	if got := b.Slices(); len(got) != 0 {
		t.Fatalf("slices = %v", got)
	}
}

// TestManagerWithFabricBackends runs the reconcile loop against real
// fabrics end to end.
func TestManagerWithFabricBackends(t *testing.T) {
	m := NewManager(fastOptions(nil))
	defer m.Close()
	b0 := fabricBackend(t, 8, nil)
	b1 := fabricBackend(t, 8, nil)
	if err := m.AddPod("p0", b0); err != nil {
		t.Fatal(err)
	}
	if err := m.AddPod("p1", b1); err != nil {
		t.Fatal(err)
	}
	sub := m.Subscribe(64)
	defer sub.Close()
	col := &collector{sub: sub}

	if err := m.SetSliceIntent("p0", SliceIntent{Name: "train", Shape: topo.Shape{X: 4, Y: 4, Z: 16}}); err != nil {
		t.Fatal(err)
	}
	if err := m.SetSliceIntent("p1", SliceIntent{Name: "serve", Shape: topo.Shape{X: 4, Y: 4, Z: 8}, Cubes: []int{3, 4}}); err != nil {
		t.Fatal(err)
	}
	col.waitFor(t, 10*time.Second, func(evs []Event) bool {
		return countEvents(evs, "p0", EventSliceReady) >= 1 &&
			countEvents(evs, "p1", EventSliceReady) >= 1
	})
	if _, err := b0.f.GetSlice("train"); err != nil {
		t.Fatal(err)
	}
	sl, err := b1.f.GetSlice("serve")
	if err != nil {
		t.Fatal(err)
	}
	if sl.Cubes[0] != 3 || sl.Cubes[1] != 4 {
		t.Fatalf("pinned cubes = %v", sl.Cubes)
	}
	st := m.Status()
	if len(st.Pods) != 2 || st.Pods[0].Circuits == 0 {
		t.Fatalf("status = %+v", st)
	}
}

func TestFabricBackendCubeFaultSeams(t *testing.T) {
	b := fabricBackend(t, 8, nil)
	if _, err := b.Ensure("j", topo.Shape{X: 4, Y: 4, Z: 8}, []int{0, 1}); err != nil {
		t.Fatal(err)
	}
	// Failing an owned cube auto-swaps a spare in.
	rc, err := b.FailCube(0)
	if err != nil {
		t.Fatal(err)
	}
	if rc < 0 {
		t.Fatalf("no replacement cube for owned failure, got %d", rc)
	}
	if b.CubeHealthy(0) {
		t.Fatal("cube 0 still healthy after FailCube")
	}
	sl, err := b.f.GetSlice("j")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range sl.Cubes {
		if c == 0 {
			t.Fatalf("failed cube still in slice: %v", sl.Cubes)
		}
	}
	// Failing a free cube reports no replacement.
	if rc, err := b.FailCube(7); err != nil || rc != -1 {
		t.Fatalf("free-cube failure = (%d, %v), want (-1, nil)", rc, err)
	}
	if err := b.RepairCube(0); err != nil {
		t.Fatal(err)
	}
	if !b.CubeHealthy(0) {
		t.Fatal("cube 0 unhealthy after repair")
	}
}

func TestManagerResolvesCyclicCubeMigration(t *testing.T) {
	m := NewManager(fastOptions(nil))
	defer m.Close()
	b := fabricBackend(t, 4, nil)
	if err := m.AddPod("p", b); err != nil {
		t.Fatal(err)
	}
	sub := m.Subscribe(64)
	defer sub.Close()
	col := &collector{sub: sub}
	shape := topo.Shape{X: 4, Y: 4, Z: 8}
	if err := m.SetSliceIntent("p", SliceIntent{Name: "a", Shape: shape, Cubes: []int{0, 1}}); err != nil {
		t.Fatal(err)
	}
	if err := m.SetSliceIntent("p", SliceIntent{Name: "z", Shape: shape, Cubes: []int{2, 3}}); err != nil {
		t.Fatal(err)
	}
	col.waitFor(t, 10*time.Second, func(evs []Event) bool {
		return countEvents(evs, "p", EventSliceReady) >= 2
	})
	// Swap the two slices' cubes — a cyclic migration no single ensure
	// order can satisfy without tearing one down first.
	if err := m.SetSliceIntent("p", SliceIntent{Name: "a", Shape: shape, Cubes: []int{2, 3}}); err != nil {
		t.Fatal(err)
	}
	if err := m.SetSliceIntent("p", SliceIntent{Name: "z", Shape: shape, Cubes: []int{0, 1}}); err != nil {
		t.Fatal(err)
	}
	col.waitFor(t, 10*time.Second, func(evs []Event) bool {
		st := m.Status()
		return len(st.Pods) == 1 && st.Pods[0].Converged && !st.Pods[0].Quarantined
	})
	sl, err := b.f.GetSlice("a")
	if err != nil {
		t.Fatal(err)
	}
	if sl.Cubes[0] != 2 || sl.Cubes[1] != 3 {
		t.Fatalf("slice a cubes = %v, want [2 3]", sl.Cubes)
	}
	sl, err = b.f.GetSlice("z")
	if err != nil {
		t.Fatal(err)
	}
	if sl.Cubes[0] != 0 || sl.Cubes[1] != 1 {
		t.Fatalf("slice z cubes = %v, want [0 1]", sl.Cubes)
	}
}
