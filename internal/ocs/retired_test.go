package ocs

// The chassis power model below was deleted from the package in PR 25:
// nothing outside tests read it (deadexport over cmd/, examples/ and
// bench/; the cost model carries the Palomar unit's power). The floor
// tests that exercised it run against this copy until a later PR retires
// them; no other test may start using it.

// maxPowerW is the maximum power draw of the chassis (paper: 108 W).
const maxPowerW = 108

// PowerW returns the present power draw. An OCS does no per-packet
// processing, so draw is dominated by the HV drivers and control electronics
// and is effectively independent of traffic (paper: max 108 W).
func (s *Switch) PowerW() float64 {
	if !s.up {
		return 0
	}
	base := 0.55 * maxPowerW
	perBoard := 0.45 * maxPowerW / float64(s.cfg.DriverBoards)
	w := base
	for _, ok := range s.boards {
		if ok {
			w += perBoard
		}
	}
	return w
}
