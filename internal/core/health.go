package core

import (
	"fmt"
	"slices"

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
// the fabric swaps a healthy free cube into its position — realize
// reprograms only that position's circuits and leaves the rest, live or
// dark, as they were — and returns the replacement cube id; rc is -1 when
// no slice was affected. A refused swap records only the failure.
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
	free := f.FreeCubes()
	if len(free) == 0 {
		// No spare: the slice degrades; release nothing, leave the job to
		// the scheduler.
		return -1, fmt.Errorf("%w: slice %q keeps failed cube %d", ErrNoSpareCube, name, c)
	}
	s := f.slices[name]
	cubes := slices.Clone(s.Cubes)
	cubes[slices.Index(cubes, c)] = free[0]
	if _, err := f.realize(s, s.Shape, cubes, nil); err != nil {
		return -1, err
	}
	if f.metricSwaps != nil {
		f.metricSwaps.Inc()
	}
	return free[0], nil
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

// RepairLink handles a damaged fiber pair: cube's pigtail on OCS o has
// failed (its port drops all circuits), a spare port is allocated from the
// switch's reserved pool ("8 spares for link testing and repairs",
// Appendix A), the cube's fibers are repatched to it, and the owning slice
// is realized again, re-admitting the circuits that ran through the failed
// port onto the spare (its other dark circuits wait for a heal). It
// returns the spare port now carrying the cube's fibers.
func (f *Fabric) RepairLink(o topo.OCSID, cube int) (ocs.PortID, error) {
	sw, err := f.Switch(o)
	if err != nil {
		return 0, err
	}
	if cube < 0 || cube >= 64 || !f.installed[cube] {
		return 0, fmt.Errorf("%w: %d", ErrCubeRange, cube)
	}
	old := f.PortFor(o, cube)
	if _, err := sw.FailPort(old); err != nil {
		return 0, err
	}
	spare, err := sw.SpareFor(old)
	if err != nil {
		return 0, err
	}
	f.portMap[portKey{o, cube}] = spare

	name := f.owner[cube]
	if name == "" {
		return spare, nil
	}
	s := f.slices[name]
	onPort := func(r topo.CircuitReq) bool { return r.OCS == o && (r.North == cube || r.South == cube) }
	if _, err = f.realize(s, s.Shape, s.Cubes, onPort); err != nil {
		_ = f.refreshWorstMargin(s) // the port map moved all the same
	}
	return spare, err
}

// ObserveLinkBER feeds one pre-FEC BER measurement for the receive lane of
// cube `north` on OCS o into the fabric's anomaly detection. A reading
// above the KP4 threshold writes an Error record to Config.Log at once,
// and one far above the link's own baseline a Warn record, each carrying
// ocs and cube (the production pattern of §3.2.2 and Fig 13's
// monitoring). It never changes the fabric: the repair an Error reading
// calls for is the operator's journaled RepairLink. A sample naming no
// switch or cube, or whose BER is not in (0, 1), is refused and creates
// no detector.
func (f *Fabric) ObserveLinkBER(o topo.OCSID, north int, ber float64) (bool, error) {
	if _, err := f.Switch(o); err != nil {
		return false, err
	}
	if north < 0 || north >= 64 || !(ber > 0 && ber < 1) {
		return false, fmt.Errorf("core: BER sample for cube %d: want a cube in 0-63 and 0 < BER < 1, got %g", north, ber)
	}
	key := fmt.Sprintf("ber/ocs%d/cube%d", o, north)
	det, ok := f.berDetectors[key]
	if !ok {
		log := f.cfg.Log
		if log != nil {
			log = log.With("ocs", int(o), "cube", north)
		}
		det = telemetry.NewDetector(log)
		det.HardLimit = fec.KP4Threshold
		f.berDetectors[key] = det
	}
	return det.Observe(ber), nil
}
