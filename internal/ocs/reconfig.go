package ocs

import (
	"cmp"
	"fmt"
	"slices"
)

// Permutation describes a desired partial cross-connect state: one Move
// per north port to change. Ports it does not name are left untouched —
// this is the paper's §2.3 requirement of "the ability to keep certain
// connections undisturbed while making changes elsewhere", which provides
// job isolation. Apply and ApplyAll sort it by north port in place.
type Permutation []Move

// Move sends North to South, or tears North's circuit down when South is
// Dark. A Dark move on a north port that another move of the same
// permutation targets is implied by that move and ignored.
type Move struct {
	North, South PortID
	// floor is the path's IntrinsicLossDB when Switch.Move evaluated it,
	// else 0 and the switch evaluates it as it aligns the circuit.
	floor float64
}

// Dark, as a move's target, parks the north port's mirrors: its circuit,
// if it has one, is torn down. On an unconnected port it is already in
// place.
const Dark PortID = -1

// Move returns the move north→south with the path's intrinsic loss floor
// evaluated, for a caller that prices the circuit before it commits it:
// the switch aligns the circuit from this floor instead of evaluating it
// again. The floor is the switch's own at the time of the call, so the
// move belongs in this switch's permutation, committed before its mirrors
// are remapped.
func (s *Switch) Move(north, south PortID) Move {
	return Move{North: north, South: south, floor: s.IntrinsicLossDB(north, south)}
}

// FloorDB returns the intrinsic loss floor Switch.Move evaluated, or 0 for
// a move built as a literal.
func (m Move) FloorDB() float64 { return m.floor }

// byPorts orders moves by north port, Dark before any target of the same
// north port.
func byPorts(a, b Move) int {
	if c := cmp.Compare(a.North, b.North); c != 0 {
		return c
	}
	return cmp.Compare(a.South, b.South)
}

// implied reports whether the sorted p's move i is a Dark the next move,
// on the same north port, makes redundant.
func (p Permutation) implied(i int) bool {
	return p[i].South == Dark && i+1 < len(p) && p[i+1].North == p[i].North
}

// moves reports whether the sorted p names north port n.
func (p Permutation) moves(n PortID) bool {
	_, ok := slices.BinarySearchFunc(p, n, func(m Move, n PortID) int { return cmp.Compare(m.North, n) })
	return ok
}

// check reports whether s accepts the sorted p — up, ports in range, no
// port targeted twice, no south port taken from a circuit p does not also
// move, every new circuit between healthy, drivable ports — so that commit
// cannot fail.
func (s *Switch) check(p Permutation) error {
	if !s.up {
		return ErrSwitchDown
	}
	if s.stamp++; s.stamp == 0 { // wrapped: forget every old stamp
		clear(s.southSeen)
		s.stamp = 1
	}
	for i, m := range p {
		n, so := m.North, m.South
		if int(n) < 0 || int(n) >= s.cfg.Radix || so < Dark || int(so) >= s.cfg.Radix {
			return fmt.Errorf("%w: %d->%d", ErrPortRange, n, so)
		}
		if so == Dark {
			continue
		}
		if i > 0 && p[i-1].North == n && p[i-1].South != Dark {
			return fmt.Errorf("%w: north %d targeted twice", ErrNotBijective, n)
		}
		if s.southSeen[so] == s.stamp {
			return fmt.Errorf("%w: south %d targeted twice", ErrNotBijective, so)
		}
		s.southSeen[so] = s.stamp
		// A south port currently owned by a north port that the permutation
		// does not reassign would be disturbed — reject.
		if owner := s.rconn[so]; owner != -1 && owner != int(n) && !p.moves(PortID(owner)) {
			return fmt.Errorf("%w: south %d busy with untouched north %d", ErrPortBusy, so, owner)
		}
	}
	for _, m := range p {
		n, so := m.North, m.South
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

// commit applies a sorted permutation check accepted: it parks every moved
// north port and the south port each is about to take, then aligns the new
// circuits in north-port order, so the hardware sequence and its
// telemetry follow the ports.
func (s *Switch) commit(p Permutation) {
	for i, m := range p {
		if p.implied(i) || s.conn[m.North] == int(m.South) {
			continue
		}
		if s.conn[m.North] != -1 {
			s.disconnect(m.North)
		}
		if m.South != Dark && s.rconn[m.South] != -1 {
			s.disconnect(PortID(s.rconn[m.South]))
		}
	}
	// Every moved north port is parked now and every other one is where
	// p sends it.
	for _, m := range p {
		if m.South != Dark && s.conn[m.North] != int(m.South) {
			floor := m.floor
			if floor == 0 {
				floor = s.IntrinsicLossDB(m.North, m.South)
			}
			s.establish(m.North, m.South, floor)
		}
	}
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

// Apply atomically applies a partial permutation. Circuits not named in the
// permutation are untouched (their loss and connectivity provably
// unchanged). On any validation error nothing is modified.
func (s *Switch) Apply(p Permutation) (ReconfigResult, error) {
	slices.SortFunc(p, byPorts)
	if err := s.check(p); err != nil {
		return ReconfigResult{}, err
	}
	var res ReconfigResult
	for i, m := range p {
		if p.implied(i) || s.conn[m.North] == int(m.South) {
			continue
		}
		res.Changed++
		if m.South != Dark {
			res.Established = append(res.Established, Circuit{North: m.North, South: m.South, SetupTime: setupTime})
			res.Duration = setupTime
		}
	}
	s.commit(p)
	for i := range res.Established {
		res.Established[i].InsertionLossDB = s.loss[res.Established[i].North]
	}
	return res, nil
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
		slices.SortFunc(p, byPorts)
		if err := switches[i].check(p); err != nil {
			return fmt.Errorf("OCS %d: %w", i, err)
		}
	}
	for i, p := range perms {
		switches[i].commit(p)
	}
	return nil
}
