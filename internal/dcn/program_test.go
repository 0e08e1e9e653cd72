package dcn

import (
	"errors"
	"testing"

	"lightwave/internal/ocs"
)

func newDCNFabric(t *testing.T, blocks, switches int) *Fabric {
	t.Helper()
	f, err := NewFabric(blocks, switches, ocs.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestProgramRealizesTopology(t *testing.T) {
	blocks, uplinks := 8, 14
	f := newDCNFabric(t, blocks, uplinks+2)
	top, err := UniformMesh(blocks, uplinks)
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Program(top)
	if err != nil {
		t.Fatal(err)
	}
	if res.TornDown != 0 || res.Kept != 0 {
		t.Fatalf("fresh fabric result = %+v", res)
	}
	totalTrunks := 0
	for i := 0; i < blocks; i++ {
		totalTrunks += top.Degree(i)
	}
	totalTrunks /= 2
	if res.Established != totalTrunks {
		t.Fatalf("established %d, want %d", res.Established, totalTrunks)
	}
	if !f.Matches(top) {
		t.Fatal("live hardware does not match the topology")
	}
}

func TestProgramEngineeredTopology(t *testing.T) {
	blocks, uplinks := 10, 18
	demand := SkewedDemand(blocks, 1e9, 4, 30, 11)
	top, err := Engineer(blocks, uplinks, demand)
	if err != nil {
		t.Fatal(err)
	}
	f := newDCNFabric(t, blocks, uplinks+4)
	if _, err := f.Program(top); err != nil {
		t.Fatal(err)
	}
	if !f.Matches(top) {
		t.Fatal("engineered topology not realized")
	}
}

func TestReprogramIsIncremental(t *testing.T) {
	// Re-engineering for a shifted demand must keep the still-valid trunks
	// untouched — in-service topology engineering (§2.3 isolation).
	blocks, uplinks := 8, 14
	f := newDCNFabric(t, blocks, uplinks+2)

	d1 := UniformDemand(blocks, 1e9)
	d1[0][1], d1[1][0] = 40e9, 40e9
	t1, err := Engineer(blocks, uplinks, d1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Program(t1); err != nil {
		t.Fatal(err)
	}

	// Shift the hot pair from (0,1) to (2,3).
	d2 := UniformDemand(blocks, 1e9)
	d2[2][3], d2[3][2] = 40e9, 40e9
	t2, err := Engineer(blocks, uplinks, d2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Program(t2)
	if err != nil {
		t.Fatal(err)
	}
	if !f.Matches(t2) {
		t.Fatal("reprogram did not realize the new topology")
	}
	if res.Kept == 0 {
		t.Fatal("no circuits survived an overlapping re-engineering")
	}
	// The shared background mesh is the majority of trunks; most must
	// survive.
	total := res.Kept + res.Established
	if res.Kept*2 < total {
		t.Fatalf("only %d of %d trunks kept", res.Kept, total)
	}
}

func TestReprogramIdenticalTopologyIsNoOp(t *testing.T) {
	blocks, uplinks := 6, 10
	f := newDCNFabric(t, blocks, uplinks+2)
	top, _ := UniformMesh(blocks, uplinks)
	if _, err := f.Program(top); err != nil {
		t.Fatal(err)
	}
	res, err := f.Program(top)
	if err != nil {
		t.Fatal(err)
	}
	if res.Established != 0 || res.TornDown != 0 {
		t.Fatalf("idempotent reprogram changed circuits: %+v", res)
	}
}

func TestProgramMatchingConstraint(t *testing.T) {
	// Each block has one strand per OCS: no switch may host two circuits
	// touching the same block.
	blocks, uplinks := 8, 14
	f := newDCNFabric(t, blocks, uplinks+2)
	top, _ := UniformMesh(blocks, uplinks)
	if _, err := f.Program(top); err != nil {
		t.Fatal(err)
	}
	for i, sw := range f.Switches {
		seen := map[int]bool{}
		for _, c := range sw.Circuits() {
			for _, blk := range []int{int(c.North), int(c.South)} {
				if seen[blk] {
					t.Fatalf("switch %d uses block %d's strand twice", i, blk)
				}
				seen[blk] = true
			}
		}
	}
}

func TestProgramCapacityExhaustion(t *testing.T) {
	blocks, uplinks := 8, 14
	f := newDCNFabric(t, blocks, 3) // far too few switches
	top, _ := UniformMesh(blocks, uplinks)
	if _, err := f.Program(top); !errors.Is(err, ErrTooFewSwitches) {
		t.Fatalf("err = %v", err)
	}
}

func TestNewFabricValidation(t *testing.T) {
	cfg := ocs.DefaultConfig()
	if _, err := NewFabric(200, 4, cfg); !errors.Is(err, ErrBlocksRadix) {
		t.Fatalf("err = %v", err)
	}
}

func TestProgramRefusesOtherBlockCount(t *testing.T) {
	// Ports 8 and 9 belong to no block of an 8-block fabric: a 10-block
	// topology is refused before any switch is asked, and never matches.
	f := newDCNFabric(t, 8, 18)
	top, err := UniformMesh(10, 9)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Program(top); !errors.Is(err, ErrBlockCount) {
		t.Fatalf("err = %v, want ErrBlockCount", err)
	}
	if n := f.Circuits(); n != 0 {
		t.Errorf("refused Program established %d circuits", n)
	}
	if f.Matches(top) {
		t.Error("a 10-block topology matches an 8-block fabric")
	}
}
