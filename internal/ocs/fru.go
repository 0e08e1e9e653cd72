package ocs

import "fmt"

// This file models the serviceability design of §3.2.2 / Fig 7: redundant
// hot-swappable power supplies and fans, field-replaceable high-voltage
// driver boards (whose mirror state is lost on swap), and per-mirror
// failures repaired by remapping a port to one of the die's qualified spare
// mirrors (176 fabricated, 136 in service).

// FailDriverBoard marks HV driver board b failed. Every circuit whose
// north- or south-side mirror is actuated by board b drops immediately and
// is returned so the control plane can react. This mirrors the paper's note
// that "the mirror state cannot be maintained when driver boards are hot
// swapped" and that the HV drivers were the switch's largest reliability
// challenge.
func (s *Switch) FailDriverBoard(b int) ([]Circuit, error) {
	if b < 0 || b >= s.cfg.DriverBoards {
		return nil, ErrDriverBoard
	}
	if !s.boards[b] {
		return nil, nil // already failed; idempotent
	}
	s.boards[b] = false
	dropped := s.dropUndrivable()
	return dropped, nil
}

// ReplaceDriverBoard hot-swaps board b back into service. Circuits dropped
// by its failure are not re-established automatically; that is the control
// plane's job.
func (s *Switch) ReplaceDriverBoard(b int) error {
	if b < 0 || b >= s.cfg.DriverBoards {
		return ErrDriverBoard
	}
	if s.boards[b] {
		return ErrBoardHealthy
	}
	s.boards[b] = true
	return nil
}

// DriverBoardHealthy reports the health of board b.
func (s *Switch) DriverBoardHealthy(b int) bool {
	return b >= 0 && b < s.cfg.DriverBoards && s.boards[b]
}

// dropUndrivable tears down every circuit whose path lost actuation and
// returns them.
func (s *Switch) dropUndrivable() []Circuit {
	return s.dropCircuits(func(n, so PortID) bool { return !s.portDrivable(n) || !s.portDrivable(so) })
}

// dropCircuits tears down every circuit lost reports as a casualty of a
// hardware failure, counts each on the ocs.circuits_dropped_by_fru
// metric, and returns them.
func (s *Switch) dropCircuits(lost func(north, south PortID) bool) []Circuit {
	var dropped []Circuit
	for n, so := range s.conn {
		if so == -1 || !lost(PortID(n), PortID(so)) {
			continue
		}
		dropped = append(dropped, Circuit{North: PortID(n), South: PortID(so), InsertionLossDB: s.loss[n]})
		s.disconnect(PortID(n))
		if s.metricDrops != nil {
			s.metricDrops.Inc()
		}
	}
	return dropped
}

// FailMirror marks mirror m on die d (0 or 1) failed and attempts the
// manufacturing-spare repair: the affected port is remapped to the
// best-quality unused healthy mirror on that die. It returns the circuits
// dropped by the failure and whether a spare was available.
func (s *Switch) FailMirror(d, m int) (dropped []Circuit, repaired bool, err error) {
	if d < 0 || d > 1 || m < 0 || m >= s.cfg.MirrorsPerDie {
		return nil, false, ErrMirrorRange
	}
	if !s.dies[d].ok[m] {
		return nil, false, nil // already failed
	}
	s.dies[d].ok[m] = false
	dropped = s.dropUndrivable()

	// Find the port (if any) served by this mirror and remap it to a spare.
	port := -1
	for p, mm := range s.portMirror[d] {
		if mm == m {
			port = p
			break
		}
	}
	if port == -1 {
		return dropped, false, nil // spare mirror failed; nothing to repair
	}
	spare := s.bestSpareMirror(d)
	if spare == -1 {
		// No spare: the port is dead.
		s.portFailed[port] = true
		return dropped, false, nil
	}
	s.portMirror[d][port] = spare
	return dropped, true, nil
}

// bestSpareMirror returns the healthiest unassigned mirror on die d, or -1.
func (s *Switch) bestSpareMirror(d int) int {
	inUse := make(map[int]bool, len(s.portMirror[d]))
	for _, m := range s.portMirror[d] {
		inUse[m] = true
	}
	best, bestQ := -1, 0.0
	for m := 0; m < s.cfg.MirrorsPerDie; m++ {
		if inUse[m] || !s.dies[d].ok[m] {
			continue
		}
		if best == -1 || s.dies[d].quality[m] < bestQ {
			best, bestQ = m, s.dies[d].quality[m]
		}
	}
	return best
}

// FailPort marks a duplex port failed (damaged pigtail or collimator) and
// drops every circuit touching it. The paper reserves 8 ports per switch
// as "spares for link testing and repairs"; SpareFor hands one out.
func (s *Switch) FailPort(p PortID) ([]Circuit, error) {
	if int(p) < 0 || int(p) >= s.cfg.Radix {
		return nil, ErrPortRange
	}
	if s.portFailed[p] {
		return nil, nil
	}
	s.portFailed[p] = true
	return s.dropCircuits(func(n, so PortID) bool { return n == p || so == p }), nil
}

// FailedPorts returns the failed ports in ascending order.
func (s *Switch) FailedPorts() []PortID {
	var out []PortID
	for p, failed := range s.portFailed {
		if failed {
			out = append(out, PortID(p))
		}
	}
	return out
}

// SpareFor allocates one of the reserved spare ports (the top SparePorts of
// the radix) to stand in for a failed production port: the field tech
// repatches the damaged fiber to the spare position and the control plane
// reprograms. It returns ErrNoSpare when the pool is exhausted.
func (s *Switch) SpareFor(failed PortID) (PortID, error) {
	if int(failed) < 0 || int(failed) >= s.cfg.Radix {
		return 0, ErrPortRange
	}
	if !s.portFailed[failed] {
		return 0, fmt.Errorf("ocs: port %d is healthy; no spare needed", failed)
	}
	if s.spareUsed == nil {
		s.spareUsed = make(map[int]bool)
	}
	for p := s.cfg.Radix - s.cfg.SparePorts; p < s.cfg.Radix; p++ {
		if s.portFailed[p] || s.spareUsed[p] {
			continue
		}
		s.spareUsed[p] = true
		return PortID(p), nil
	}
	return 0, ErrNoSpare
}

// SparesLeft returns the number of unallocated healthy spare ports.
//
//lwlint:ignore deadexport the test seam core's import-equivalence fuzz check compares each restored switch's spare ports on
func (s *Switch) SparesLeft() int {
	n := 0
	for p := s.cfg.Radix - s.cfg.SparePorts; p < s.cfg.Radix; p++ {
		if !s.portFailed[p] && !s.spareUsed[p] {
			n++
		}
	}
	return n
}

// FailPSU marks power supply i (0 or 1) failed. The supplies are redundant:
// the chassis stays up unless both fail.
func (s *Switch) FailPSU(i int) error {
	if i < 0 || i > 1 {
		return fmt.Errorf("ocs: psu %d out of range", i)
	}
	s.psu[i] = false
	s.updateUp()
	return nil
}

// ReplacePSU hot-swaps power supply i back.
func (s *Switch) ReplacePSU(i int) error {
	if i < 0 || i > 1 {
		return fmt.Errorf("ocs: psu %d out of range", i)
	}
	s.psu[i] = true
	s.updateUp()
	return nil
}

// FailFan marks fan i failed. Cooling tolerates a single fan failure.
func (s *Switch) FailFan(i int) error {
	if i < 0 || i >= len(s.fans) {
		return fmt.Errorf("ocs: fan %d out of range", i)
	}
	s.fans[i] = false
	s.updateUp()
	return nil
}

// ReplaceFan hot-swaps fan i back.
func (s *Switch) ReplaceFan(i int) error {
	if i < 0 || i >= len(s.fans) {
		return fmt.Errorf("ocs: fan %d out of range", i)
	}
	s.fans[i] = true
	s.updateUp()
	return nil
}

func (s *Switch) updateUp() {
	wasUp := s.up
	psuOK := s.psu[0] || s.psu[1]
	fanFailures := 0
	for _, ok := range s.fans {
		if !ok {
			fanFailures++
		}
	}
	s.up = psuOK && fanFailures <= 1
	if wasUp && !s.up {
		// Chassis down: MEMS mirrors are not latching (Table C.1), so all
		// circuit state is lost.
		s.dropCircuits(func(PortID, PortID) bool { return true })
	}
}
