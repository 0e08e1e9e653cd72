package core

import (
	"fmt"

	"lightwave/internal/fec"
	"lightwave/internal/ocs"
	"lightwave/internal/telemetry"
	"lightwave/internal/topo"
)

// This file implements the fabric's failure handling: cube health tracking,
// swap-out of failed cubes from running slices (§4.2.2 — the availability
// advantage a static fabric cannot offer), and BER telemetry ingestion with
// anomaly detection (§3.2.2).

// MarkCubeFailed records a cube failure. If the cube belongs to a slice,
// the fabric automatically swaps a healthy free cube in (reprogramming only
// the circuits that touch the replaced position) and returns the
// replacement cube id; rc is -1 when no slice was affected.
func (f *Fabric) MarkCubeFailed(c int) (rc int, err error) {
	if c < 0 || c >= 64 {
		return -1, ErrCubeRange
	}
	if !f.installed[c] {
		return -1, fmt.Errorf("%w: %d", ErrNotInstalled, c)
	}
	f.healthy[c] = false
	name := f.owner[c]
	if name == "" {
		return -1, nil
	}
	return f.swapCube(name, c)
}

// RepairCube returns a failed cube to service.
func (f *Fabric) RepairCube(c int) error {
	if c < 0 || c >= 64 {
		return ErrCubeRange
	}
	if !f.installed[c] {
		return fmt.Errorf("%w: %d", ErrNotInstalled, c)
	}
	f.healthy[c] = true
	return nil
}

// CubeHealthy reports a cube's health.
func (f *Fabric) CubeHealthy(c int) bool {
	return c >= 0 && c < 64 && f.installed[c] && f.healthy[c]
}

// swapCube replaces failed cube old in the named slice with a healthy free
// cube, touching only the circuits that involve the replaced position.
func (f *Fabric) swapCube(name string, old int) (int, error) {
	s := f.slices[name]
	free := f.FreeCubes()
	if len(free) == 0 {
		// No spare: the slice degrades; release nothing, leave the job to
		// the scheduler.
		return -1, fmt.Errorf("%w: slice %q keeps failed cube %d", ErrNoSpareCube, name, old)
	}
	replacement := free[0]

	// Tear down circuits touching the old cube.
	for _, r := range s.Circuits {
		if r.North != old && r.South != old {
			continue
		}
		if err := f.disconnectCircuit(r); err != nil {
			return -1, err
		}
	}

	// Substitute the cube and regenerate the circuit list.
	newCubes := make([]int, len(s.Cubes))
	for i, c := range s.Cubes {
		if c == old {
			newCubes[i] = replacement
		} else {
			newCubes[i] = c
		}
	}
	sl, err := topo.ComposeSlice(s.Shape, newCubes)
	if err != nil {
		return -1, err
	}
	newReqs := sl.RequiredCircuits()

	// Apply only the circuits that involve the replacement (the rest are
	// already in place; Apply treats in-place circuits as no-ops anyway).
	var delta []topo.CircuitReq
	for _, r := range newReqs {
		if r.North == replacement || r.South == replacement {
			delta = append(delta, r)
		}
	}
	margins, err := f.validateBudgets(delta)
	if err != nil {
		return -1, err
	}
	if err := f.applyCircuits(delta); err != nil {
		return -1, err
	}
	f.observeMargins(margins)

	f.owner[old] = ""
	f.owner[replacement] = name
	s.Cubes = newCubes
	s.Circuits = newReqs
	if f.metricSwaps != nil {
		f.metricSwaps.Inc()
	}
	return replacement, f.refreshWorstMargin(s)
}

// RepairLink handles a damaged fiber pair: cube's pigtail on OCS o has
// failed (its port drops all circuits), a spare port is allocated from the
// switch's reserved pool ("8 spares for link testing and repairs",
// Appendix A), the cube's fibers are repatched to it, and every affected
// slice circuit is re-validated and re-established on the spare. It
// returns the spare port now carrying the cube's fibers.
func (f *Fabric) RepairLink(o topo.OCSID, cube int) (ocs.PortID, error) {
	if int(o) < 0 || int(o) >= len(f.switches) {
		return 0, fmt.Errorf("core: OCS %d out of range", o)
	}
	if cube < 0 || cube >= 64 || !f.installed[cube] {
		return 0, fmt.Errorf("%w: %d", ErrCubeRange, cube)
	}
	sw := f.switches[o]
	old := f.PortFor(o, cube)
	if _, err := sw.FailPort(old); err != nil {
		return 0, err
	}
	spare, err := sw.SpareFor(old)
	if err != nil {
		return 0, err
	}
	f.portMap[portKey{o, cube}] = spare

	// Re-establish the slice circuits that ran through the failed port.
	var delta []topo.CircuitReq
	var moved []*Slice
	for _, s := range f.slices {
		n := len(delta)
		for _, r := range s.Circuits {
			if r.OCS == o && (r.North == cube || r.South == cube) {
				delta = append(delta, r)
			}
		}
		if len(delta) > n {
			moved = append(moved, s)
		}
	}
	margins, err := f.validateBudgets(delta)
	if err == nil {
		err = f.applyCircuits(delta)
	}
	if err == nil {
		f.observeMargins(margins)
	}
	// Refreshed whether or not the circuits came back: the port map moved,
	// and a slice's worst margin is a function of its circuits and the
	// port map alone.
	for _, s := range moved {
		if rerr := f.refreshWorstMargin(s); err == nil {
			err = rerr
		}
	}
	return spare, err
}

// ObserveLinkBER feeds one pre-FEC BER measurement for the receive lane of
// cube `north` on OCS o into the fabric's anomaly detection. Readings above
// the KP4 threshold raise a Critical alert immediately; readings far above
// the link's own baseline raise Warnings (the production pattern of §3.2.2
// and Fig 13's monitoring). It never changes the fabric: the repair a
// Critical reading calls for is the operator's journaled RepairLink.
func (f *Fabric) ObserveLinkBER(o topo.OCSID, north int, ber float64) bool {
	key := fmt.Sprintf("ber/ocs%d/cube%d", o, north)
	det, ok := f.berDetectors[key]
	if !ok {
		sink := f.cfg.Alerts
		det = telemetry.NewDetector(key, sink)
		det.HardLimit = fec.KP4Threshold
		f.berDetectors[key] = det
	}
	return det.Observe(ber)
}
