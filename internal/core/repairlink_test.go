package core

import (
	"testing"

	"lightwave/internal/topo"
)

func TestRepairLinkRepatchesToSpare(t *testing.T) {
	f := newFabric(t, 8)
	s, err := f.ComposeSlice("job", topo.Shape{X: 4, Y: 4, Z: 16}, []int{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	// Cube 1's fiber pair on OCS 32 (a Z-dimension switch) is damaged.
	o := topo.OCSID(32)
	spare, err := f.RepairLink(o, 1)
	if err != nil {
		t.Fatal(err)
	}
	if int(spare) < 128 {
		t.Fatalf("spare port = %d, want one of the reserved 8", spare)
	}
	if f.PortFor(o, 1) != spare {
		t.Fatal("port map not updated")
	}
	// Every slice circuit — including the repatched ones — is live.
	for _, r := range s.Circuits {
		if !f.circuitLive(r) {
			t.Fatalf("circuit %+v dead after link repair", r)
		}
	}
	// Other OCSes keep identity wiring.
	if f.PortFor(topo.OCSID(0), 1) != 1 {
		t.Fatal("unrelated OCS remapped")
	}
}

func TestRepairLinkSurvivesSubsequentOps(t *testing.T) {
	f := newFabric(t, 8)
	if _, err := f.ComposeSlice("job", topo.Shape{X: 4, Y: 4, Z: 16}, []int{0, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.RepairLink(topo.OCSID(32), 1); err != nil {
		t.Fatal(err)
	}
	// Reshape after the repair: the remapped port must be used throughout.
	s, err := f.ReshapeSlice("job", topo.Shape{X: 4, Y: 8, Z: 8}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range s.Circuits {
		if !f.circuitLive(r) {
			t.Fatalf("circuit %+v dead after reshape on repaired port", r)
		}
	}
	// Destroy and recompose using the same cube: still works on the spare.
	if err := f.DestroySlice("job"); err != nil {
		t.Fatal(err)
	}
	if f.TotalCircuits() != 0 {
		t.Fatalf("circuits = %d after destroy", f.TotalCircuits())
	}
	if _, err := f.ComposeSlice("again", topo.Shape{X: 4, Y: 4, Z: 8}, []int{1, 2}); err != nil {
		t.Fatal(err)
	}
}

func TestRepairLinkOnIdleCube(t *testing.T) {
	f := newFabric(t, 4)
	spare, err := f.RepairLink(topo.OCSID(5), 2)
	if err != nil {
		t.Fatal(err)
	}
	if int(spare) < 128 {
		t.Fatalf("spare = %d", spare)
	}
	// Compose afterwards: the remap applies transparently.
	if _, err := f.ComposeSlice("j", topo.Shape{X: 4, Y: 4, Z: 8}, []int{2, 3}); err != nil {
		t.Fatal(err)
	}
}

func TestRepairLinkValidation(t *testing.T) {
	f := newFabric(t, 4)
	if _, err := f.RepairLink(topo.OCSID(99), 0); err == nil {
		t.Error("out-of-range OCS accepted")
	}
	if _, err := f.RepairLink(topo.OCSID(0), 70); err == nil {
		t.Error("out-of-range cube accepted")
	}
	if _, err := f.RepairLink(topo.OCSID(0), 3); err != nil {
		t.Error(err)
	}
}

func TestNoAutoRepairWhenDisabled(t *testing.T) {
	f := newFabric(t, 4)
	o := topo.OCSID(7)
	if _, err := f.ObserveLinkBER(o, 2, 1e-3); err != nil {
		t.Fatal(err)
	}
	if f.PortFor(o, 2) != 2 {
		t.Fatal("an observation repatched the link: repair-link is the only repair path")
	}
}
