package cost

import "math"

// Fabric-wide reconfiguration time per technology: MEMS and piezo switches
// move all mirrors of a batch concurrently, so a full-fabric topology
// change costs one switching time regardless of circuit count; the robotic
// patch panel "suffers from slow switching speeds that are further
// compounded by the need to serialize switching of connections" (App C.2).

// ReconfigTime returns the time to apply `circuits` cross-connect changes
// on one switch of the given technology.
func (t OCSTechnology) ReconfigTime(circuits int) float64 {
	if circuits <= 0 {
		return 0
	}
	if t.PerConnectionSwitching {
		return float64(circuits) * t.SwitchingTime
	}
	return t.SwitchingTime
}

// PodReconfigTime returns the time to reconfigure an entire superpod slice
// (circuits spread over numSwitches switches working in parallel).
func (t OCSTechnology) PodReconfigTime(circuits, numSwitches int) float64 {
	if numSwitches <= 0 {
		return math.Inf(1)
	}
	per := (circuits + numSwitches - 1) / numSwitches
	return t.ReconfigTime(per)
}
