package core

import (
	"errors"
	"testing"

	"lightwave/internal/telemetry"
	"lightwave/internal/topo"
)

func newFabric(t *testing.T, cubes int) *Fabric {
	t.Helper()
	f, err := New(DefaultConfig(cubes))
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func seq(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func TestNewFabric(t *testing.T) {
	f := newFabric(t, 16)
	if f.InstalledCubes() != 16 {
		t.Errorf("installed = %d", f.InstalledCubes())
	}
	if len(f.FreeCubes()) != 16 {
		t.Errorf("free = %d", len(f.FreeCubes()))
	}
	if _, err := f.Switch(0); err != nil {
		t.Error(err)
	}
	if _, err := f.Switch(topo.NumOCS); err == nil {
		t.Error("out-of-range OCS accepted")
	}
	if _, err := New(DefaultConfig(0)); err == nil {
		t.Error("0 cubes accepted")
	}
}

func TestComposeSingleCubeSlice(t *testing.T) {
	f := newFabric(t, 4)
	s, err := f.ComposeSlice("job1", topo.Shape{X: 4, Y: 4, Z: 4}, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	// 48 self-wrap circuits, one per OCS.
	if len(s.Circuits) != 48 {
		t.Fatalf("%d circuits", len(s.Circuits))
	}
	if f.TotalCircuits() != 48 {
		t.Fatalf("fleet circuits = %d", f.TotalCircuits())
	}
	if s.WorstMarginDB < DefaultConfig(4).SafetyMarginDB {
		t.Fatalf("worst margin %.2f below safety", s.WorstMarginDB)
	}
	if len(f.FreeCubes()) != 3 {
		t.Errorf("free = %d", len(f.FreeCubes()))
	}
}

func TestComposeFullPod(t *testing.T) {
	f := newFabric(t, 64)
	s, err := f.ComposeSlice("big", topo.Shape{X: 16, Y: 16, Z: 16}, seq(64))
	if err != nil {
		t.Fatal(err)
	}
	// 3 dims × 16 face indices × 64 cubes = 3072 circuits; 64 per OCS.
	if len(s.Circuits) != 3072 {
		t.Fatalf("%d circuits", len(s.Circuits))
	}
	if f.TotalCircuits() != 3072 {
		t.Fatalf("fleet circuits = %d", f.TotalCircuits())
	}
	for i := 0; i < topo.NumOCS; i++ {
		sw, _ := f.Switch(topo.OCSID(i))
		if sw.NumCircuits() != 64 {
			t.Fatalf("OCS %d has %d circuits", i, sw.NumCircuits())
		}
	}
}

func TestComposeValidation(t *testing.T) {
	f := newFabric(t, 8)
	shape := topo.Shape{X: 4, Y: 4, Z: 4}
	if _, err := f.ComposeSlice("a", shape, []int{99}); !errors.Is(err, ErrCubeRange) {
		t.Errorf("err = %v", err)
	}
	if _, err := f.ComposeSlice("a", shape, []int{20}); !errors.Is(err, ErrNotInstalled) {
		t.Errorf("err = %v", err)
	}
	if _, err := f.ComposeSlice("a", shape, []int{1}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.ComposeSlice("a", shape, []int{2}); !errors.Is(err, ErrSliceExists) {
		t.Errorf("err = %v", err)
	}
	if _, err := f.ComposeSlice("b", shape, []int{1}); !errors.Is(err, ErrCubeBusy) {
		t.Errorf("err = %v", err)
	}
	if _, err := f.MarkCubeFailed(3); err != nil {
		t.Fatal(err)
	}
	if _, err := f.ComposeSlice("c", shape, []int{3}); !errors.Is(err, ErrCubeUnhealthy) {
		t.Errorf("err = %v", err)
	}
}

func TestSliceIsolation(t *testing.T) {
	// §2.3/§3.2: composing a new slice must keep existing circuits
	// undisturbed — same connectivity, same loss.
	f := newFabric(t, 16)
	a, err := f.ComposeSlice("a", topo.Shape{X: 4, Y: 4, Z: 16}, []int{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	before := map[[2]int]float64{}
	for _, r := range a.Circuits {
		sw, _ := f.Switch(r.OCS)
		for _, c := range sw.Circuits() {
			if int(c.North) == r.North {
				before[[2]int{int(r.OCS), r.North}] = c.InsertionLossDB
			}
		}
	}
	if _, err := f.ComposeSlice("b", topo.Shape{X: 8, Y: 8, Z: 8}, []int{4, 5, 6, 7, 8, 9, 10, 11}); err != nil {
		t.Fatal(err)
	}
	for _, r := range a.Circuits {
		sw, _ := f.Switch(r.OCS)
		got, ok := sw.ConnectionOf(f.PortFor(r.OCS, r.North))
		if !ok || got != f.PortFor(r.OCS, r.South) {
			t.Fatalf("slice a circuit ocs=%d %d->%d disturbed", r.OCS, r.North, r.South)
		}
		for _, c := range sw.Circuits() {
			if int(c.North) == r.North {
				if c.InsertionLossDB != before[[2]int{int(r.OCS), r.North}] {
					t.Fatal("existing circuit realigned during new slice composition")
				}
			}
		}
	}
}

func TestDestroySlice(t *testing.T) {
	f := newFabric(t, 8)
	if _, err := f.ComposeSlice("a", topo.Shape{X: 4, Y: 4, Z: 8}, []int{0, 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.ComposeSlice("b", topo.Shape{X: 4, Y: 4, Z: 8}, []int{2, 3}); err != nil {
		t.Fatal(err)
	}
	circuitsWithBoth := f.TotalCircuits()
	if err := f.DestroySlice("a"); err != nil {
		t.Fatal(err)
	}
	if f.TotalCircuits() != circuitsWithBoth/2 {
		t.Fatalf("circuits after destroy = %d", f.TotalCircuits())
	}
	if len(f.FreeCubes()) != 6 {
		t.Fatalf("free = %d", len(f.FreeCubes()))
	}
	if err := f.DestroySlice("a"); !errors.Is(err, ErrNoSlice) {
		t.Errorf("err = %v", err)
	}
	// Slice b untouched.
	b, err := f.GetSlice("b")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range b.Circuits {
		sw, _ := f.Switch(r.OCS)
		if got, ok := sw.ConnectionOf(f.PortFor(r.OCS, r.North)); !ok || got != f.PortFor(r.OCS, r.South) {
			t.Fatal("slice b lost a circuit")
		}
	}
}

func TestComposeRollbackOnBudgetFailure(t *testing.T) {
	// A fabric with absurd fiber length fails budget validation and must
	// not program any circuits.
	cfg := DefaultConfig(4)
	cfg.FiberKM = 100
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = f.ComposeSlice("a", topo.Shape{X: 4, Y: 4, Z: 4}, []int{0})
	if !errors.Is(err, ErrLinkBudget) {
		t.Fatalf("err = %v", err)
	}
	if f.TotalCircuits() != 0 {
		t.Fatal("circuits programmed despite budget failure")
	}
	if len(f.FreeCubes()) != 4 {
		t.Fatal("cubes leaked")
	}
}

func TestIncrementalDeployment(t *testing.T) {
	// §4.2.3: start small, add cubes, compose bigger slices — no
	// disturbance to running slices.
	f := newFabric(t, 2)
	if _, err := f.ComposeSlice("early", topo.Shape{X: 4, Y: 4, Z: 8}, []int{0, 1}); err != nil {
		t.Fatal(err)
	}
	if err := f.InstallCube(2); err != nil {
		t.Fatal(err)
	}
	if err := f.InstallCube(3); err != nil {
		t.Fatal(err)
	}
	if _, err := f.ComposeSlice("later", topo.Shape{X: 4, Y: 4, Z: 8}, []int{2, 3}); err != nil {
		t.Fatal(err)
	}
	if f.InstalledCubes() != 4 {
		t.Fatalf("installed = %d", f.InstalledCubes())
	}
	if err := f.InstallCube(99); !errors.Is(err, ErrCubeRange) {
		t.Errorf("err = %v", err)
	}
}

func TestSlicesListing(t *testing.T) {
	f := newFabric(t, 8)
	_, _ = f.ComposeSlice("zeta", topo.Shape{X: 4, Y: 4, Z: 4}, []int{0})
	_, _ = f.ComposeSlice("alpha", topo.Shape{X: 4, Y: 4, Z: 4}, []int{1})
	list := f.Slices()
	if len(list) != 2 || list[0].Name != "alpha" || list[1].Name != "zeta" {
		t.Fatalf("slices = %v", list)
	}
	if _, err := f.GetSlice("nope"); !errors.Is(err, ErrNoSlice) {
		t.Errorf("err = %v", err)
	}
}

func TestMetricsExported(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.Metrics = telemetry.NewRegistry()
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.ComposeSlice("a", topo.Shape{X: 4, Y: 4, Z: 4}, []int{0}); err != nil {
		t.Fatal(err)
	}
	if cfg.Metrics.Counter("fabric.slices_composed").Value() != 1 {
		t.Error("slice counter not incremented")
	}
	if cfg.Metrics.Distribution("fabric.link_margin_db").Snapshot().N == 0 {
		t.Error("no margin observations")
	}
}

// BenchmarkNew prices building a full-pod fabric: 48 switches, each
// drawing its manufacturing variation and selecting its best mirrors, plus
// the admission models (the receiver calibration and the FEC threshold
// bisection). Every lab pod and every cold boot pays it once.
func BenchmarkNew(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := New(DefaultConfig(64)); err != nil {
			b.Fatal(err)
		}
	}
}
