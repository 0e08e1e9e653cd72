package core

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"lightwave/internal/ocs"
	"lightwave/internal/topo"
)

// FabricState is a fabric's state export, which ImportState loads.
type FabricState struct {
	Installed []int         `json:"installed"`
	Failed    []int         `json:"failed,omitempty"` // installed cubes marked failed
	Switches  []SwitchState `json:"switches"`         // indexed by OCS id
	Slices    []SliceState  `json:"slices,omitempty"`
}

// SwitchState is one OCS's share: failed ports, the spare port each
// repaired cube's fibers moved to (PortFor), and live cross-connects.
type SwitchState struct {
	FailedPorts []ocs.PortID              `json:"failedPorts,omitempty"`
	Remaps      map[int]ocs.PortID        `json:"remaps,omitempty"`
	Circuits    map[ocs.PortID]ocs.PortID `json:"circuits,omitempty"` // north → south
}

// SliceState is one slice of a FabricState. Import recomputes its circuit
// list and worst margin, which are functions of shape, cubes and port map.
type SliceState struct {
	Name  string     `json:"name"`
	Shape topo.Shape `json:"shape"`
	Cubes []int      `json:"cubes"`
}

// ExportState captures the fabric's state.
func (f *Fabric) ExportState() FabricState {
	st := FabricState{Switches: make([]SwitchState, len(f.switches))}
	for c, ok := range f.installed {
		if ok {
			st.Installed = append(st.Installed, c)
		}
		if ok && !f.healthy[c] {
			st.Failed = append(st.Failed, c)
		}
	}
	for o, sw := range f.switches {
		ss := SwitchState{FailedPorts: sw.FailedPorts(), Remaps: map[int]ocs.PortID{}, Circuits: map[ocs.PortID]ocs.PortID{}}
		for _, c := range sw.Circuits() {
			ss.Circuits[c.North] = c.South
		}
		st.Switches[o] = ss
	}
	for k, p := range f.portMap {
		st.Switches[k.o].Remaps[k.cube] = p
	}
	for _, s := range f.Slices() {
		st.Slices = append(st.Slices, SliceState{s.Name, s.Shape, append([]int(nil), s.Cubes...)})
	}
	return st
}

// ImportState loads an export into a freshly built fabric with the
// exporter's Config. Cross-connects come back as they were, so no circuit
// is re-admitted.
func (f *Fabric) ImportState(st FabricState) error {
	if len(f.slices) != 0 || len(st.Switches) != len(f.switches) {
		return errors.New("core: ImportState needs a fresh fabric and an export of its size")
	}
	for _, c := range st.Installed {
		if err := f.InstallCube(c); err != nil {
			return err
		}
	}
	for _, c := range st.Failed { // no slice owns a cube yet, so nothing swaps
		if _, err := f.MarkCubeFailed(c); err != nil {
			return err
		}
	}
	for o, ss := range st.Switches {
		sw := f.switches[o]
		for _, p := range ss.FailedPorts {
			if _, err := sw.FailPort(p); err != nil {
				return err
			}
		}
		var live []int // remapped cubes whose spare is still in service
		for c, p := range ss.Remaps {
			f.portMap[portKey{topo.OCSID(o), c}] = p
			if !slices.Contains(ss.FailedPorts, p) {
				live = append(live, c)
			}
		}
		// The switch hands out spares lowest first and never takes one
		// back, so claiming them in port order gets each cube its own.
		sort.Slice(live, func(i, j int) bool { return ss.Remaps[live[i]] < ss.Remaps[live[j]] })
		for _, c := range live {
			if got, err := sw.SpareFor(ocs.PortID(c)); err != nil || got != ss.Remaps[c] {
				return fmt.Errorf("core: OCS %d: cube %d's spare port %d restored as %d: %v", o, c, ss.Remaps[c], got, err)
			}
		}
		p := make(ocs.Permutation, 0, len(ss.Circuits))
		for n, so := range ss.Circuits {
			p = append(p, ocs.Move{North: n, South: so})
		}
		if _, err := sw.Apply(p); err != nil {
			return fmt.Errorf("core: OCS %d: %w", o, err)
		}
	}
	for _, ss := range st.Slices {
		sl, err := topo.ComposeSlice(ss.Shape, ss.Cubes)
		if err != nil {
			return err
		}
		s := &Slice{Name: ss.Name, Shape: ss.Shape, Cubes: append([]int(nil), ss.Cubes...), Circuits: sl.RequiredCircuits()}
		for _, c := range s.Cubes {
			if c < 0 || c >= 64 || !f.installed[c] || f.owner[c] != "" {
				return fmt.Errorf("core: slice %q: cube %d not installed or not free", s.Name, c)
			}
			f.owner[c] = s.Name
		}
		f.slices[s.Name] = s
		if err := f.refreshWorstMargin(s); err != nil {
			return err
		}
	}
	return nil
}
