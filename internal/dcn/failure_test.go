package dcn

import (
	"errors"
	"reflect"
	"testing"

	"lightwave/internal/ocs"
)

func TestFailSwitchDropsTrunks(t *testing.T) {
	blocks, uplinks := 8, 14
	f := newDCNFabric(t, blocks, uplinks+4)
	top, _ := UniformMesh(blocks, uplinks)
	if _, err := f.Program(top); err != nil {
		t.Fatal(err)
	}
	// Find a switch with circuits.
	idx := -1
	for i, sw := range f.Switches {
		if sw.NumCircuits() > 0 {
			idx = i
			break
		}
	}
	if idx < 0 {
		t.Fatal("no loaded switch")
	}
	lost, err := f.FailSwitch(idx)
	if err != nil {
		t.Fatal(err)
	}
	if lost == 0 {
		t.Fatal("no trunks lost")
	}
	if f.Matches(top) {
		t.Fatal("fabric still matches topology after switch failure")
	}
}

func TestHealAfterFailureRestoresTopology(t *testing.T) {
	// Re-running Program after a switch dies re-places its trunks on the
	// switches still up — the §3.4 heal.
	blocks, uplinks := 8, 14
	f := newDCNFabric(t, blocks, uplinks+6)
	top, _ := UniformMesh(blocks, uplinks)
	if _, err := f.Program(top); err != nil {
		t.Fatal(err)
	}
	if _, err := f.FailSwitch(0); err != nil {
		t.Fatal(err)
	}
	res, err := f.Program(top)
	if err != nil {
		t.Fatal(err)
	}
	if res.Established == 0 {
		t.Fatal("healing established nothing")
	}
	if !f.Matches(top) {
		t.Fatal("topology not restored after healing")
	}
	// Failed switch must carry nothing.
	if f.Switches[0].NumCircuits() != 0 {
		t.Fatal("failed switch carries circuits")
	}
	// Healing keeps survivors: most trunks were untouched.
	if res.Kept == 0 {
		t.Fatal("healing rebuilt everything from scratch")
	}
}

func TestRepairSwitchReturnsCapacity(t *testing.T) {
	f := newDCNFabric(t, 6, 12)
	if _, err := f.FailSwitch(3); err != nil {
		t.Fatal(err)
	}
	if f.Switches[3].Up() {
		t.Fatal("switch up after failure")
	}
	if err := f.RepairSwitch(3); err != nil {
		t.Fatal(err)
	}
	if !f.Switches[3].Up() {
		t.Fatal("switch down after repair")
	}
	// Usable again.
	if _, err := f.Switches[3].Connect(ocs.PortID(0), ocs.PortID(1)); err != nil {
		t.Fatal(err)
	}
}

func TestFailSwitchBounds(t *testing.T) {
	f := newDCNFabric(t, 4, 6)
	if _, err := f.FailSwitch(99); !errors.Is(err, ErrSwitchIndex) {
		t.Errorf("err = %v", err)
	}
	if err := f.RepairSwitch(-1); !errors.Is(err, ErrSwitchIndex) {
		t.Errorf("err = %v", err)
	}
}

func TestHealWithoutCapacityFails(t *testing.T) {
	blocks, uplinks := 8, 14
	// Exactly enough switches; losing several leaves too few.
	f := newDCNFabric(t, blocks, uplinks+1)
	top, _ := UniformMesh(blocks, uplinks)
	if _, err := f.Program(top); err != nil {
		t.Fatal(err)
	}
	failSwitches(t, f, 4)
	if _, err := f.Program(top); !errors.Is(err, ErrTooFewSwitches) {
		t.Fatalf("err = %v", err)
	}
}

func TestRefusedProgramLeavesFabric(t *testing.T) {
	// A topology the surviving switches cannot host is refused before any
	// circuit moves: the trunks the new topology drops stay up.
	blocks, uplinks := 8, 14
	f := newDCNFabric(t, blocks, uplinks+1)
	t1, _ := UniformMesh(blocks, uplinks)
	if _, err := f.Program(t1); err != nil {
		t.Fatal(err)
	}
	failSwitches(t, f, 4)
	d := UniformDemand(blocks, 1e9)
	d[0][1], d[1][0] = 40e9, 40e9
	t2, err := Engineer(blocks, uplinks, d)
	if err != nil {
		t.Fatal(err)
	}
	before := f.LiveTrunks()
	if _, err := f.Program(t2); !errors.Is(err, ErrTooFewSwitches) {
		t.Errorf("err = %v, want ErrTooFewSwitches", err)
	}
	if !reflect.DeepEqual(f.LiveTrunks(), before) {
		t.Errorf("refused Program changed the live trunks:\n got %v\nwant %v", f.LiveTrunks(), before)
	}
}

func TestSwitchRefusalLeavesFabric(t *testing.T) {
	// The coloring hosts the topology, but switch 0 has lost a driver
	// board and refuses the circuits its dead ports would carry: the
	// refusal comes from the hardware, and still no switch changes.
	blocks, uplinks := 8, 14
	f := newDCNFabric(t, blocks, 18)
	t1, _ := UniformMesh(blocks, uplinks)
	if _, err := f.Program(t1); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Switches[0].FailDriverBoard(0); err != nil {
		t.Fatal(err)
	}
	d := UniformDemand(blocks, 1e9)
	d[0][1], d[1][0] = 40e9, 40e9
	t2, err := Engineer(blocks, uplinks, d)
	if err != nil {
		t.Fatal(err)
	}
	trunks := f.LiveTrunks()
	circuits := make([][]ocs.Circuit, len(f.Switches))
	for i, sw := range f.Switches {
		circuits[i] = sw.Circuits()
	}
	if _, err := f.Program(t2); err == nil {
		t.Fatal("Program over an undrivable port succeeded")
	}
	if !reflect.DeepEqual(f.LiveTrunks(), trunks) {
		t.Errorf("refused Program changed the live trunks:\n got %v\nwant %v", f.LiveTrunks(), trunks)
	}
	for i, sw := range f.Switches {
		if got := sw.Circuits(); !reflect.DeepEqual(got, circuits[i]) {
			t.Errorf("switch %d: refused Program changed its circuits:\n got %v\nwant %v", i, got, circuits[i])
		}
	}
}

// failSwitches takes switches 0..n-1 out of service.
func failSwitches(t *testing.T, f *Fabric, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := f.FailSwitch(i); err != nil {
			t.Fatal(err)
		}
	}
}
