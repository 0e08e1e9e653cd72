package core

import (
	"errors"
	"reflect"
	"testing"

	"lightwave/internal/ocs"
	"lightwave/internal/topo"
)

func ensureFabric(t *testing.T, cubes int) *Fabric {
	t.Helper()
	f, err := New(DefaultConfig(cubes))
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestEnsureSliceComposes(t *testing.T) {
	f := ensureFabric(t, 8)
	sl, changed, err := f.EnsureSlice("j", topo.Shape{X: 4, Y: 4, Z: 16}, []int{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if !changed {
		t.Fatal("fresh compose reported unchanged")
	}
	if len(sl.Circuits) == 0 {
		t.Fatal("no circuits composed")
	}
	// Second ensure with the same intent is a no-op.
	_, changed, err = f.EnsureSlice("j", topo.Shape{X: 4, Y: 4, Z: 16}, []int{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if changed {
		t.Fatal("matching ensure reported a change")
	}
	// Empty cubes means "keep current cubes" for an existing slice.
	_, changed, err = f.EnsureSlice("j", topo.Shape{X: 4, Y: 4, Z: 16}, nil)
	if err != nil || changed {
		t.Fatalf("nil-cube ensure: changed=%v err=%v", changed, err)
	}
}

func TestEnsureSliceNewNeedsCubes(t *testing.T) {
	f := ensureFabric(t, 4)
	if _, _, err := f.EnsureSlice("j", topo.Shape{X: 4, Y: 4, Z: 4}, nil); err == nil {
		t.Fatal("new slice without cubes accepted")
	}
}

func TestEnsureSliceReshapes(t *testing.T) {
	f := ensureFabric(t, 8)
	if _, _, err := f.EnsureSlice("j", topo.Shape{X: 4, Y: 4, Z: 16}, []int{0, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	sl, changed, err := f.EnsureSlice("j", topo.Shape{X: 4, Y: 8, Z: 8}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !changed {
		t.Fatal("reshape reported unchanged")
	}
	if sl.Shape != (topo.Shape{X: 4, Y: 8, Z: 8}) {
		t.Fatalf("shape = %v", sl.Shape)
	}
}

func TestEnsureSliceHealsDeadCircuits(t *testing.T) {
	f := ensureFabric(t, 8)
	sl, _, err := f.EnsureSlice("j", topo.Shape{X: 4, Y: 4, Z: 16}, []int{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	// Tear one circuit down behind the control plane's back.
	r := sl.Circuits[0]
	sw, err := f.Switch(r.OCS)
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.Disconnect(f.PortFor(r.OCS, r.North)); err != nil {
		t.Fatal(err)
	}
	if f.circuitLive(r) {
		t.Fatal("circuit still live after disconnect")
	}
	_, changed, err := f.EnsureSlice("j", topo.Shape{X: 4, Y: 4, Z: 16}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !changed {
		t.Fatal("healing ensure reported unchanged")
	}
	if !f.circuitLive(r) {
		t.Fatal("circuit not re-programmed")
	}
}

// TestEnsureHealAdmits: a circuit the heal re-programs is admitted like any
// other. On the long-fiber plant, find a two-cube slice and an OCS where
// the slice's identity-wired circuits are admitted but those through the
// OCS's first spare port are not. After the link repair onto that spare is
// refused, ensuring the same intent must refuse the heal as well and leave
// the fabric as it was, not light a circuit below SafetyMarginDB.
func TestEnsureHealAdmits(t *testing.T) {
	cfg := DefaultConfig(16)
	cfg.FiberKM = longFiberKM
	shape := topo.Shape{X: 4, Y: 4, Z: 8}
	probe, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	firstSpare := ocs.PortID(probe.switches[0].UsablePorts())
	var cubes []int
	var o topo.OCSID
search:
	for a := 0; a < 16; a++ {
		for b := 0; b < 16; b++ {
			s, err := probe.ComposeSlice("probe", shape, []int{a, b})
			if err != nil {
				continue
			}
			for o = 0; o < topo.NumOCS; o++ {
				probe.portMap[portKey{o, a}] = firstSpare
				_, err := probe.validateBudgets(s.Circuits)
				delete(probe.portMap, portKey{o, a})
				if errors.Is(err, ErrLinkBudget) {
					cubes = []int{a, b}
					break search
				}
			}
			if err := probe.DestroySlice("probe"); err != nil {
				t.Fatal(err)
			}
		}
	}
	if cubes == nil {
		t.Fatal("no admitted two-cube slice has a refused spare on this plant")
	}

	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.ComposeSlice("s", shape, cubes); err != nil {
		t.Fatal(err)
	}
	if _, err := f.RepairLink(o, cubes[0]); !errors.Is(err, ErrLinkBudget) {
		t.Fatalf("repair of cube %d on OCS %d: err = %v, want ErrLinkBudget", cubes[0], o, err)
	}
	before := viewOf(f)
	if _, _, err := f.EnsureSlice("s", shape, cubes); !errors.Is(err, ErrLinkBudget) {
		t.Fatalf("heal through the refused spare: err = %v, want ErrLinkBudget", err)
	}
	if got := viewOf(f); !reflect.DeepEqual(got, before) {
		t.Fatalf("refused heal changed the fabric:\n got %+v\nwant %+v", got, before)
	}
}

// TestNoopEnsureAllocatesNothing: ensuring an intent that is already
// realised checks the slice's circuits and nothing more.
func TestNoopEnsureAllocatesNothing(t *testing.T) {
	f := ensureFabric(t, 8)
	shape, cubes := topo.Shape{X: 4, Y: 4, Z: 16}, []int{0, 1, 2, 3}
	if _, _, err := f.EnsureSlice("j", shape, cubes); err != nil {
		t.Fatal(err)
	}
	for _, intent := range [][]int{cubes, nil} {
		allocs := testing.AllocsPerRun(100, func() {
			if _, changed, err := f.EnsureSlice("j", shape, intent); err != nil || changed {
				t.Fatalf("no-op ensure: changed=%v err=%v", changed, err)
			}
		})
		if allocs != 0 {
			t.Errorf("no-op ensure with cubes %v: %v allocs", intent, allocs)
		}
	}
}
