package dcn

import (
	"errors"
	"testing"
)

func TestUniformMesh(t *testing.T) {
	top, err := UniformMesh(8, 21)
	if err != nil {
		t.Fatal(err)
	}
	if err := top.Validate(); err != nil {
		t.Fatal(err)
	}
	// 21 uplinks over 7 peers = 3 each, no remainder.
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			if i == j {
				continue
			}
			if top.Links[i][j] != 3 {
				t.Fatalf("links[%d][%d] = %d", i, j, top.Links[i][j])
			}
		}
	}
}

func TestUniformMeshTooFewUplinks(t *testing.T) {
	if _, err := UniformMesh(8, 3); !errors.Is(err, ErrTooFewUplinks) {
		t.Fatalf("err = %v", err)
	}
}

func TestEngineerFollowsDemand(t *testing.T) {
	blocks, uplinks := 8, 28
	d := UniformDemand(blocks, 1)
	d[0][1], d[1][0] = 50, 50 // hot pair
	top, err := Engineer(blocks, uplinks, d)
	if err != nil {
		t.Fatal(err)
	}
	if err := top.Validate(); err != nil {
		t.Fatal(err)
	}
	// The hot pair must receive strictly more trunks than a cold pair.
	if top.Links[0][1] <= top.Links[2][3] {
		t.Fatalf("hot pair %d trunks, cold pair %d", top.Links[0][1], top.Links[2][3])
	}
	// Reachability: every pair keeps at least one trunk.
	for i := 0; i < blocks; i++ {
		for j := 0; j < blocks; j++ {
			if i != j && top.Links[i][j] < 1 {
				t.Fatalf("pair %d-%d disconnected", i, j)
			}
		}
	}
}

func TestEngineerUsesFullBudget(t *testing.T) {
	blocks, uplinks := 6, 20
	top, err := Engineer(blocks, uplinks, UniformDemand(blocks, 1))
	if err != nil {
		t.Fatal(err)
	}
	// With symmetric demand the greedy fill should exhaust (or nearly
	// exhaust) every block's ports.
	for i := 0; i < blocks; i++ {
		if top.Degree(i) < uplinks-1 {
			t.Fatalf("block %d degree %d of %d", i, top.Degree(i), uplinks)
		}
	}
}

func TestEngineerErrors(t *testing.T) {
	if _, err := Engineer(8, 3, UniformDemand(8, 1)); !errors.Is(err, ErrTooFewUplinks) {
		t.Fatalf("err = %v", err)
	}
	if _, err := Engineer(8, 20, UniformDemand(7, 1)); !errors.Is(err, ErrBadDemand) {
		t.Fatalf("err = %v", err)
	}
	bad := UniformDemand(8, 1)
	bad[0][1] = -1
	if _, err := Engineer(8, 20, bad); !errors.Is(err, ErrBadDemand) {
		t.Fatalf("err = %v", err)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	top, _ := UniformMesh(4, 6)
	top.Links[0][0] = 1
	if top.Validate() == nil {
		t.Fatal("self-link accepted")
	}
	top.Links[0][0] = 0
	top.Links[0][1] = 99
	if top.Validate() == nil {
		t.Fatal("asymmetry accepted")
	}
}

func TestDecomposeCoversAllTrunks(t *testing.T) {
	d := SkewedDemand(8, 1e9, 3, 8, 42)
	top, err := Engineer(8, 16, d)
	if err != nil {
		t.Fatal(err)
	}
	matchings := top.Decompose()
	// Rebuild the link matrix from the matchings.
	rebuilt := make([][]int, top.Blocks)
	for i := range rebuilt {
		rebuilt[i] = make([]int, top.Blocks)
	}
	for _, m := range matchings {
		seen := make(map[int]bool)
		for _, e := range m {
			if seen[e[0]] || seen[e[1]] {
				t.Fatal("block appears twice in one matching")
			}
			seen[e[0]], seen[e[1]] = true, true
			rebuilt[e[0]][e[1]]++
			rebuilt[e[1]][e[0]]++
		}
	}
	for i := range rebuilt {
		for j := range rebuilt[i] {
			if rebuilt[i][j] != top.Links[i][j] {
				t.Fatalf("trunk %d-%d: decomposed %d, want %d", i, j, rebuilt[i][j], top.Links[i][j])
			}
		}
	}
	// The matching count is bounded by... it should not wildly exceed the
	// maximum degree.
	maxDeg := 0
	for i := 0; i < top.Blocks; i++ {
		if d := top.Degree(i); d > maxDeg {
			maxDeg = d
		}
	}
	if len(matchings) > 2*maxDeg {
		t.Fatalf("%d matchings for max degree %d", len(matchings), maxDeg)
	}
}

func TestOCSCountPositive(t *testing.T) {
	top, _ := UniformMesh(8, 14)
	// One OCS per matching of the decomposition.
	if len(top.Decompose()) <= 0 {
		t.Fatal("no OCSes for a nonempty topology")
	}
}
