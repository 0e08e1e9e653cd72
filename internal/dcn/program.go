package dcn

import (
	"errors"
	"fmt"
	"sort"
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
)

// NewFabric builds a physical fabric of numSwitches OCSes for the given
// block count.
func NewFabric(blocks, numSwitches int, cfg ocs.Config) (*Fabric, error) {
	if blocks > cfg.Radix {
		return nil, fmt.Errorf("%w: %d blocks, radix %d", ErrBlocksRadix, blocks, cfg.Radix)
	}
	f := &Fabric{Blocks: blocks}
	for i := 0; i < numSwitches; i++ {
		c := cfg
		c.Seed = cfg.Seed + uint64(i)*0x9E37
		sw, err := ocs.New(c)
		if err != nil {
			return nil, err
		}
		f.Switches = append(f.Switches, sw)
	}
	return f, nil
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
// No hardware is touched until the whole topology has a switch
// assignment: when the up switches cannot host it, Program returns
// ErrTooFewSwitches and the fabric is exactly as it was.
func (f *Fabric) Program(t *Topology) (ProgramResult, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	var res ProgramResult
	var up []*ocs.Switch
	for _, sw := range f.Switches {
		if sw.Up() {
			up = append(up, sw)
		}
	}
	// remaining[a][b] = trunks of the target topology not yet matched to
	// an existing circuit.
	remaining := make([][]int, t.Blocks)
	for i := range remaining {
		remaining[i] = append([]int(nil), t.Links[i]...)
	}

	// Pass 1: classify existing circuits. Still-wanted circuits become
	// pre-colored edges of the assignment (their switch is their color);
	// stale circuits are collected, and torn down only once the coloring
	// has succeeded.
	type circuit struct {
		sw    *ocs.Switch
		north ocs.PortID
	}
	var stale []circuit
	assign := newEdgeAssignment(t.Blocks, len(up))
	for i, sw := range up {
		for _, c := range sw.Circuits() {
			a, b := int(c.North), int(c.South)
			if a < t.Blocks && b < t.Blocks && remaining[a][b] > 0 {
				remaining[a][b]--
				remaining[b][a]--
				if _, err := assign.addEdge(a, b, i); err != nil {
					return res, err
				}
				continue
			}
			stale = append(stale, circuit{sw, c.North})
		}
	}
	// Missing trunks become uncolored edges.
	for a := 0; a < t.Blocks; a++ {
		for b := a + 1; b < t.Blocks; b++ {
			for k := 0; k < remaining[a][b]; k++ {
				if _, err := assign.addEdge(a, b, -1); err != nil {
					return res, err
				}
			}
		}
	}
	if err := assign.colorAll(); err != nil {
		return res, fmt.Errorf("%w: %v", ErrTooFewSwitches, err)
	}
	for _, c := range stale {
		if err := c.sw.Disconnect(c.north); err != nil {
			return res, err
		}
		res.TornDown++
	}

	// Pass 2: diff the colored assignment against the hardware. Kempe
	// repairs may have moved a few surviving trunks to other switches;
	// those count as churn like any other change.
	type edge struct{ a, b int }
	desired := make([]map[edge]int, len(up))
	for i := range desired {
		desired[i] = make(map[edge]int)
	}
	for e, c := range assign.color {
		a, b := assign.ends[e][0], assign.ends[e][1]
		desired[c][edge{a, b}]++
	}
	for i, sw := range up {
		// Tear down circuits not desired on this switch anymore.
		for _, c := range sw.Circuits() {
			k := edge{int(c.North), int(c.South)}
			if desired[i][k] > 0 {
				desired[i][k]--
				res.Kept++
				continue
			}
			if err := sw.Disconnect(c.North); err != nil {
				return res, err
			}
			res.TornDown++
		}
		// Establish in sorted (a, b) order: ranging the map directly
		// would randomize the hardware programming sequence run-to-run —
		// and, when a Connect fails mid-program, which circuits exist —
		// breaking replay determinism (the PR 2 bug class, caught by
		// lwlint's maprange analyzer).
		edges := make([]edge, 0, len(desired[i]))
		for k := range desired[i] {
			edges = append(edges, k)
		}
		sort.Slice(edges, func(x, y int) bool {
			if edges[x].a != edges[y].a {
				return edges[x].a < edges[y].a
			}
			return edges[x].b < edges[y].b
		})
		for _, k := range edges {
			for j := 0; j < desired[i][k]; j++ {
				if _, err := sw.Connect(ocs.PortID(k.a), ocs.PortID(k.b)); err != nil {
					return res, err
				}
				res.Established++
			}
		}
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

// Matches reports whether the live hardware state realizes topology t.
func (f *Fabric) Matches(t *Topology) bool {
	live := f.LiveTrunks()
	for i := 0; i < t.Blocks; i++ {
		for j := 0; j < t.Blocks; j++ {
			if live[i][j] != t.Links[i][j] {
				return false
			}
		}
	}
	return true
}
