package core

import (
	"fmt"

	"lightwave/internal/topo"
)

// ReshapeSlice changes a running slice's torus shape in place — the "late
// binding after hardware is deployed" capability of §4.2.1 and the §6
// future-work direction of reshaping between training phases. The new
// shape may reuse the slice's cubes (pure reshape), grow onto free cubes,
// or shrink. Circuits shared between the old and new configuration are
// kept untouched; everything else is reprogrammed. Other slices are
// provably undisturbed.
//
// cubes may be nil to reuse the slice's current cube list (the new shape
// must then need exactly that many cubes).
func (f *Fabric) ReshapeSlice(name string, shape topo.Shape, cubes []int) (*Slice, error) {
	s, okSlice := f.slices[name]
	if !okSlice {
		return nil, fmt.Errorf("%w: %q", ErrNoSlice, name)
	}
	if cubes == nil {
		cubes = s.Cubes
	}
	inOld := make(map[int]bool, len(s.Cubes))
	for _, c := range s.Cubes {
		inOld[c] = true
	}
	for _, c := range cubes {
		if c < 0 || c >= 64 {
			return nil, fmt.Errorf("%w: %d", ErrCubeRange, c)
		}
		if !f.installed[c] {
			return nil, fmt.Errorf("%w: %d", ErrNotInstalled, c)
		}
		if !f.healthy[c] {
			return nil, fmt.Errorf("%w: %d", ErrCubeUnhealthy, c)
		}
		if owner := f.owner[c]; owner != "" && owner != name {
			return nil, fmt.Errorf("%w: %d (slice %q)", ErrCubeBusy, c, owner)
		}
	}

	sl, err := topo.ComposeSlice(shape, cubes)
	if err != nil {
		return nil, err
	}
	newReqs := sl.RequiredCircuits()

	// Identify which new circuits are already in place (shared with the
	// old configuration) and which old circuits must go.
	oldSet := make(map[topo.CircuitReq]bool, len(s.Circuits))
	for _, r := range s.Circuits {
		oldSet[r] = true
	}
	var fresh []topo.CircuitReq
	newSet := make(map[topo.CircuitReq]bool, len(newReqs))
	for _, r := range newReqs {
		newSet[r] = true
		if !oldSet[r] {
			fresh = append(fresh, r)
		}
	}

	// Validate budgets for the fresh circuits before touching hardware.
	margins, err := f.validateBudgets(fresh)
	if err != nil {
		return nil, err
	}

	// Tear down stale circuits, then program the fresh ones.
	for _, r := range s.Circuits {
		if newSet[r] {
			continue
		}
		if err := f.disconnectCircuit(r); err != nil {
			return nil, err
		}
	}
	if err := f.applyCircuits(fresh); err != nil {
		return nil, err
	}
	f.observeMargins(margins)

	// Ownership bookkeeping.
	for _, c := range s.Cubes {
		f.owner[c] = ""
	}
	for _, c := range cubes {
		f.owner[c] = name
	}
	s.Shape = shape
	s.Cubes = append([]int(nil), cubes...)
	s.Circuits = newReqs
	return s, f.refreshWorstMargin(s)
}
