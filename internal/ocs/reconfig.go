package ocs

import "fmt"

// Permutation describes a desired partial cross-connect state: for each
// north port present in the map, the south port it must reach. Ports absent
// from the map are left untouched — this is the paper's §2.3 requirement of
// "the ability to keep certain connections undisturbed while making changes
// elsewhere", which provides job isolation.
type Permutation map[PortID]PortID

// Validate checks that the permutation is injective and in range, and that
// it does not steal a south port from a circuit it does not also move.
func (s *Switch) validatePermutation(p Permutation) error {
	seenSouth := make(map[PortID]bool, len(p))
	for n, so := range p {
		if int(n) < 0 || int(n) >= s.cfg.Radix || int(so) < 0 || int(so) >= s.cfg.Radix {
			return fmt.Errorf("%w: %d->%d", ErrPortRange, n, so)
		}
		if seenSouth[so] {
			return fmt.Errorf("%w: south %d targeted twice", ErrNotBijective, so)
		}
		seenSouth[so] = true
		// A south port currently owned by a north port that the permutation
		// does not reassign would be disturbed — reject.
		if owner := s.rconn[so]; owner != -1 && owner != int(n) {
			if _, moved := p[PortID(owner)]; !moved {
				return fmt.Errorf("%w: south %d busy with untouched north %d", ErrPortBusy, so, owner)
			}
		}
	}
	return nil
}

// ReconfigResult reports what a batch reconfiguration did.
type ReconfigResult struct {
	// Established are the circuits set up by this reconfiguration.
	Established []Circuit
	// Changed is the number of north ports whose connection changed.
	Changed int
	// Duration is the simulated wall time of the batch. Mirror moves within
	// one switch proceed in parallel (each mirror has its own driver), so
	// the batch takes one settle + alignment interval, not one per circuit.
	Duration float64
}

// Apply atomically applies a partial permutation. Circuits not named in the
// permutation are untouched (their loss and connectivity provably
// unchanged). On any validation error nothing is modified.
func (s *Switch) Apply(p Permutation) (ReconfigResult, error) {
	if !s.up {
		return ReconfigResult{}, ErrSwitchDown
	}
	if err := s.validatePermutation(p); err != nil {
		return ReconfigResult{}, err
	}
	for n, so := range p {
		if s.portFailed[n] || s.portFailed[so] {
			return ReconfigResult{}, fmt.Errorf("%w: %d->%d", ErrPortFailed, n, so)
		}
		if s.conn[n] == int(so) {
			continue // already in place; will count as unchanged
		}
		if !s.portDrivable(n) || !s.portDrivable(so) {
			return ReconfigResult{}, fmt.Errorf("%w: %d->%d mirror undrivable", ErrPortFailed, n, so)
		}
	}

	var res ReconfigResult
	// Tear down the connections being moved.
	for n, so := range p {
		if s.conn[n] == int(so) {
			continue
		}
		if s.conn[n] != -1 {
			if err := s.Disconnect(n); err != nil {
				return ReconfigResult{}, err
			}
		}
		// If the target south port is held by another north port that is
		// also being moved, tear that one down too (validated above).
		if owner := s.rconn[so]; owner != -1 && owner != int(n) {
			if err := s.Disconnect(PortID(owner)); err != nil {
				return ReconfigResult{}, err
			}
		}
	}
	for n, so := range p {
		if s.conn[n] == int(so) {
			continue
		}
		c, err := s.Connect(n, so)
		if err != nil {
			return res, err
		}
		res.Established = append(res.Established, c)
		res.Changed++
		if c.SetupTime > res.Duration {
			res.Duration = c.SetupTime
		}
	}
	return res, nil
}
