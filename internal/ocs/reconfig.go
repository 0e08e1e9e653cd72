package ocs

import (
	"fmt"
	"slices"
)

// Permutation describes a desired partial cross-connect state: for each
// north port present in the map, the south port it must reach, or Dark to
// tear its circuit down. Ports absent from the map are left untouched —
// this is the paper's §2.3 requirement of "the ability to keep certain
// connections undisturbed while making changes elsewhere", which provides
// job isolation.
type Permutation map[PortID]PortID

// Dark, as a permutation's target, parks the north port's mirrors: its
// circuit, if it has one, is torn down. On an unconnected port it is
// already in place.
const Dark PortID = -1

// check reports whether s accepts p — up, ports in range, no south port
// targeted twice or taken from a circuit p does not also move, every new
// circuit between healthy, drivable ports — so that commit cannot fail.
func (s *Switch) check(p Permutation) error {
	if !s.up {
		return ErrSwitchDown
	}
	seenSouth := make(map[PortID]bool, len(p))
	for n, so := range p {
		if int(n) < 0 || int(n) >= s.cfg.Radix || so < Dark || int(so) >= s.cfg.Radix {
			return fmt.Errorf("%w: %d->%d", ErrPortRange, n, so)
		}
		if so == Dark {
			continue
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
	for n, so := range p {
		if so == Dark {
			continue
		}
		if s.portFailed[n] || s.portFailed[so] {
			return fmt.Errorf("%w: %d->%d", ErrPortFailed, n, so)
		}
		if s.conn[n] != int(so) && (!s.portDrivable(n) || !s.portDrivable(so)) {
			return fmt.Errorf("%w: %d->%d mirror undrivable", ErrPortFailed, n, so)
		}
	}
	return nil
}

// ReconfigResult reports what a batch reconfiguration did.
type ReconfigResult struct {
	// Established are the circuits set up by this reconfiguration, in
	// north-port order.
	Established []Circuit
	// Changed is the number of north ports whose connection changed,
	// teardowns included.
	Changed int
	// Duration is the simulated wall time of the batch. Mirror moves within
	// one switch proceed in parallel (each mirror has its own driver), so
	// the batch takes one settle + alignment interval, not one per circuit.
	Duration float64
}

// commit applies a permutation check accepted: it parks every moved north
// port and the south port each is about to take, then aligns the new
// circuits in north-port order, so neither the hardware sequence nor its
// telemetry follows map order.
func (s *Switch) commit(p Permutation) ReconfigResult {
	var buf [32]PortID
	moved := buf[:0]
	for n, so := range p {
		if s.conn[n] != int(so) {
			moved = append(moved, n)
		}
	}
	slices.Sort(moved)
	for _, n := range moved {
		if s.conn[n] != -1 {
			s.disconnect(n)
		}
		if so := p[n]; so != Dark && s.rconn[so] != -1 {
			s.disconnect(PortID(s.rconn[so]))
		}
	}
	res := ReconfigResult{Changed: len(moved)}
	for _, n := range moved {
		if so := p[n]; so != Dark {
			c := s.establish(n, so)
			res.Established = append(res.Established, c)
			res.Duration = max(res.Duration, c.SetupTime)
		}
	}
	return res
}

// Apply atomically applies a partial permutation. Circuits not named in the
// permutation are untouched (their loss and connectivity provably
// unchanged). On any validation error nothing is modified.
func (s *Switch) Apply(p Permutation) (ReconfigResult, error) {
	if err := s.check(p); err != nil {
		return ReconfigResult{}, err
	}
	return s.commit(p), nil
}

// ApplyAll applies perms[i] to switches[i] as one transaction, the one
// multi-switch commit both fabrics program through: every switch checks
// its permutation before any changes, so when one refuses — down, a port
// failed or undrivable, a circuit in the way — all are as they were.
func ApplyAll(switches []*Switch, perms []Permutation) error {
	for i, p := range perms {
		if len(p) == 0 {
			continue
		}
		if err := switches[i].check(p); err != nil {
			return fmt.Errorf("OCS %d: %w", i, err)
		}
	}
	for i, p := range perms {
		switches[i].commit(p)
	}
	return nil
}
