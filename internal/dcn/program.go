package dcn

import (
	"errors"
	"fmt"
	"sync"

	"lightwave/internal/ocs"
	"lightwave/internal/topo"
)

// Fabric binds the logical DCN topology to physical OCS hardware: block b
// owns north port b and south port b on every switch, and each matching of
// the topology decomposition is realized as a set of duplex circuits on one
// switch (a bidi strand carries both directions of a trunk, §3.1). Program
// applies a new topology *incrementally*: trunks present in both the old
// and new topology keep their circuits — the §2.3 requirement of keeping
// connections undisturbed while changing others, which is what makes
// in-service topology engineering possible.
//
// The fabric's methods are safe for concurrent use: one mutex serializes
// programming, switch failures and the status reads a fleet pod serves.
// It is the innermost lock of the control plane — nothing is called out
// while it is held.
type Fabric struct {
	Blocks   int
	Switches []*ocs.Switch

	mu sync.Mutex
}

// Errors returned by fabric programming.
var (
	ErrTooFewSwitches = errors.New("dcn: topology needs more OCSes than the fabric has")
	ErrBlocksRadix    = errors.New("dcn: block count exceeds OCS radix")
	ErrBlockCount     = errors.New("dcn: topology block count differs from the fabric's")
)

// NewFabric builds a physical fabric of numSwitches OCSes for the given
// block count.
func NewFabric(blocks, numSwitches int, cfg ocs.Config) (*Fabric, error) {
	if blocks > cfg.Radix {
		return nil, fmt.Errorf("%w: %d blocks, radix %d", ErrBlocksRadix, blocks, cfg.Radix)
	}
	sws, err := ocs.NewSwitches(numSwitches, cfg)
	if err != nil {
		return nil, err
	}
	return &Fabric{Blocks: blocks, Switches: sws}, nil
}

// ProgramResult reports what a (re)programming pass did.
type ProgramResult struct {
	// Established and TornDown count circuit changes; Kept counts trunks
	// that survived untouched.
	Established, TornDown, Kept int
}

// Program realizes the topology on the switches that are up,
// incrementally: circuits serving trunks that exist in both the current
// and the desired topology are kept untouched; stale circuits are torn
// down; missing trunks are placed on switches where both blocks' strands
// are free. Each block has one strand per OCS, so a block may appear in at
// most one circuit per switch (the matching constraint). With a switch
// down this is the §3.4 heal: its lost trunks are re-placed on the
// survivors and every surviving circuit stays.
//
// Program is all-or-nothing. A topology over another block count is
// refused with ErrBlockCount, one the up switches cannot host with
// ErrTooFewSwitches, both before any switch is asked; the switches then
// take the whole change as one ocs.ApplyAll transaction, so a switch that
// refuses its part leaves every switch as it was.
func (f *Fabric) Program(t *Topology) (ProgramResult, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if t.Blocks != f.Blocks {
		return ProgramResult{}, fmt.Errorf("%w: %d blocks, fabric has %d", ErrBlockCount, t.Blocks, f.Blocks)
	}
	// up[c] is the fabric index of the switch colored c.
	var up []int
	for i, sw := range f.Switches {
		if sw.Up() {
			up = append(up, i)
		}
	}
	// remaining[a][b] = trunks of the target topology not yet matched to
	// an existing circuit.
	remaining := make([][]int, t.Blocks)
	for i := range remaining {
		remaining[i] = append([]int(nil), t.Links[i]...)
	}

	// Pass 1: still-wanted circuits become pre-colored edges of the
	// assignment (their switch is their color).
	assign := newEdgeAssignment(t.Blocks, len(up))
	for color, i := range up {
		for _, c := range f.Switches[i].Circuits() {
			a, b := int(c.North), int(c.South)
			if a < t.Blocks && b < t.Blocks && remaining[a][b] > 0 {
				remaining[a][b]--
				remaining[b][a]--
				if _, err := assign.addEdge(a, b, color); err != nil {
					return ProgramResult{}, err
				}
			}
		}
	}
	// Missing trunks become uncolored edges.
	for a := 0; a < t.Blocks; a++ {
		for b := a + 1; b < t.Blocks; b++ {
			for k := 0; k < remaining[a][b]; k++ {
				if _, err := assign.addEdge(a, b, -1); err != nil {
					return ProgramResult{}, err
				}
			}
		}
	}
	if err := assign.colorAll(); err != nil {
		return ProgramResult{}, fmt.Errorf("%w: %v", ErrTooFewSwitches, err)
	}

	// Pass 2: diff the colored assignment against the hardware, one
	// permutation per switch: every live circuit goes dark unless a
	// colored edge a-b keeps or moves its north, each edge wanting north a
	// on south b. Kempe repairs may have moved a few surviving trunks to
	// other switches; those count as churn like any other change.
	perms := make([]ocs.Permutation, len(f.Switches))
	var res ProgramResult
	for _, i := range up {
		for _, c := range f.Switches[i].Circuits() {
			perms[i] = append(perms[i], ocs.Move{North: c.North, South: ocs.Dark})
		}
		res.TornDown += f.Switches[i].NumCircuits()
	}
	for e, color := range assign.color {
		i, north, south := up[color], ocs.PortID(assign.ends[e][0]), ocs.PortID(assign.ends[e][1])
		perms[i] = append(perms[i], ocs.Move{North: north, South: south})
		if so, ok := f.Switches[i].ConnectionOf(north); ok && so == south {
			res.Kept++
		}
	}
	res.TornDown -= res.Kept
	res.Established = len(assign.color) - res.Kept
	if err := ocs.ApplyAll(f.Switches, perms); err != nil {
		return ProgramResult{}, fmt.Errorf("dcn: programming %w", err)
	}
	return res, nil
}

// SwitchesTouching returns the ascending IDs of the switches hosting a
// circuit of any torn block pair, in either order — the set a TE stage
// must drain. Switches at or beyond topo.NumOCS are outside the fleet's
// drainable OCS range: they are still reprogrammed, just not drained.
func (f *Fabric) SwitchesTouching(tears [][2]int) []int {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(tears) == 0 {
		return nil
	}
	torn := make(map[[2]int]bool, 2*len(tears))
	for _, t := range tears {
		torn[t] = true
		torn[[2]int{t[1], t[0]}] = true
	}
	var ids []int
	for i, sw := range f.Switches {
		if i >= topo.NumOCS {
			break
		}
		for _, c := range sw.Circuits() {
			if torn[[2]int{int(c.North), int(c.South)}] {
				ids = append(ids, i)
				break
			}
		}
	}
	return ids
}

// Circuits counts the circuits established across the fabric.
func (f *Fabric) Circuits() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := 0
	for _, sw := range f.Switches {
		n += sw.NumCircuits()
	}
	return n
}

// LiveTrunks returns the trunk matrix currently programmed on the
// hardware, for verification against the logical topology.
func (f *Fabric) LiveTrunks() [][]int {
	f.mu.Lock()
	defer f.mu.Unlock()
	links := make([][]int, f.Blocks)
	for i := range links {
		links[i] = make([]int, f.Blocks)
	}
	for _, sw := range f.Switches {
		for _, c := range sw.Circuits() {
			a, b := int(c.North), int(c.South)
			if a < f.Blocks && b < f.Blocks {
				links[a][b]++
				links[b][a]++
			}
		}
	}
	return links
}

// Matches reports whether the live hardware state realizes topology t; a
// topology over another block count never does.
func (f *Fabric) Matches(t *Topology) bool {
	return t.SameTrunks(&Topology{Blocks: f.Blocks, Links: f.LiveTrunks()})
}
