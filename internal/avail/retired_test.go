package avail

// The bodies below were deleted from the package in PR 25: nothing
// outside tests composed them (deadexport over cmd/, examples/ and bench/).
// The floor tests that exercised them run against these copies until a
// later PR retires them; no other test may start using them.

// Combining the two halves of Fig 15: slices larger than one cube depend on
// the lightwave fabric itself ("a single failure in the set of OCSes ...
// will degrade the performance of any slice composed of more than one
// elemental cube"), so the probability that an advertised multi-cube slice
// is deliverable is the product of cube availability and fabric
// availability. Single-cube slices ride only intra-rack electrical links
// and are immune to OCS failures.

// PodWithFabric extends the goodput model with the OCS fabric.
type PodWithFabric struct {
	PodModel
	// FabricAvail is the probability that every OCS of the fabric is up
	// (from FabricAvailability).
	FabricAvail float64
}

// DefaultPodWithFabric returns the Fig 15 configuration with the given
// per-OCS availability and OCS count.
func DefaultPodWithFabric(serverAvail, perOCS float64, numOCS int) PodWithFabric {
	return PodWithFabric{
		PodModel:    DefaultPod(serverAvail),
		FabricAvail: FabricAvailability(perOCS, numOCS),
	}
}

// ReconfigurableSlices sizes the advertisement with the fabric folded in:
// for k > 1 the deliverability target must be met by
// FabricAvail · P(enough cubes).
func (p PodWithFabric) ReconfigurableSlices(k int) int {
	if k <= 1 {
		return p.PodModel.ReconfigurableSlices(k)
	}
	if p.FabricAvail <= 0 || p.FabricAvail < p.Target {
		return 0
	}
	adjusted := p.PodModel
	adjusted.Target = p.Target / p.FabricAvail
	if adjusted.Target > 1 {
		return 0
	}
	return adjusted.ReconfigurableSlices(k)
}

// Goodput returns the advertised fraction of the pod under the combined
// model.
func (p PodWithFabric) Goodput(k int) float64 {
	return float64(p.ReconfigurableSlices(k)*k) / float64(p.Cubes)
}
