package cost

import "lightwave/internal/topo"

// Pod fabric construction for Table 1. A 64-cube pod has 96 optical links
// per cube (Appendix A): 6144 link endpoints, 3072 point-to-point
// connections of 8 lanes each.

// PodCubes is the cube count of a full superpod.
const PodCubes = 64

// podEndpoints returns the optical link endpoints of a pod with the given
// cube count (6 faces × 16 links per cube).
func podEndpoints(cubes int) int { return cubes * 6 * topo.FaceLinks }

// podConnections returns the point-to-point connections.
func podConnections(cubes int) int { return podEndpoints(cubes) / 2 }

// StaticPodFabric returns the baseline fabric of Table 1: short-range,
// low-cost optics directly connecting the 64 elemental cubes in a fixed
// 3D torus.
func StaticPodFabric(cubes int) BOM {
	b := BOM{Name: "static-fabric"}
	b.Add(SRModule, podEndpoints(cubes))
	b.Add(CablePair, podConnections(cubes))
	return b
}

// LightwavePodFabric returns the reconfigurable lightwave fabric: bidi
// modules on every endpoint, 48 Palomar OCSes, and the fiber plant.
func LightwavePodFabric(cubes int) BOM {
	b := BOM{Name: "lightwave-fabric"}
	b.Add(BidiModule, podEndpoints(cubes))
	b.Add(PalomarOCS, topo.NumOCS)
	b.Add(FiberStrand, podEndpoints(cubes))
	return b
}

// DCNPodFabric returns the EPS-based option: every CPU host gets a NIC and
// connects into a 3-tier Clos of 800G packet switches (per-TPU bandwidth is
// far below ICI; the paper's point is that even this costs more than the
// lightwave fabric).
func DCNPodFabric(cubes int) BOM {
	hosts := cubes * topo.HostsPerCube
	b := BOM{Name: "dcn-fabric"}
	b.Add(HostNIC, hosts)
	// Host links plus two tiers of fabric links, modules at both ends of
	// every fabric link and one per host link (NIC side is the NIC).
	b.Add(DCNModule, 6*hosts)
	// 80 chassis serve the 1024-host pod (32 leaf + 32 spine + 16 super).
	b.Add(EPSChassis, 80*cubes/PodCubes)
	return b
}

// PodSystem wraps a fabric BOM with the compute cost of the pod.
func PodSystem(fabric BOM, cubes int) BOM {
	b := BOM{Name: fabric.Name + "-system"}
	b.Add(TPUCube, cubes)
	b.Merge(fabric)
	return b
}

// Table1Row is one row of the Table 1 reproduction.
type Table1Row struct {
	Fabric        string
	RelativeCost  float64
	RelativePower float64
}

// Table1 reproduces Table 1: total pod cost and power for the DCN,
// lightwave, and static fabric options, normalized to static.
func Table1() []Table1Row {
	static := PodSystem(StaticPodFabric(PodCubes), PodCubes)
	lightwave := PodSystem(LightwavePodFabric(PodCubes), PodCubes)
	dcn := PodSystem(DCNPodFabric(PodCubes), PodCubes)
	rows := []Table1Row{
		{"DCN", dcn.Cost() / static.Cost(), dcn.Power() / static.Power()},
		{"Lightwave Fabric", lightwave.Cost() / static.Cost(), lightwave.Power() / static.Power()},
		{"Static", 1, 1},
	}
	return rows
}

// IncrementalFabricShare returns the lightwave fabric's cost premium over
// the static baseline as a fraction of system cost — the paper's "less
// than 6% of the total system cost" framing (consistent with Table 1's
// 1.06×).
func IncrementalFabricShare() float64 {
	static := PodSystem(StaticPodFabric(PodCubes), PodCubes)
	lw := PodSystem(LightwavePodFabric(PodCubes), PodCubes)
	return lw.Cost()/static.Cost() - 1
}

// OCSSavingsFromBidi returns the fractional OCS+fiber cost saved by bidi
// transceivers versus standard duplex (§4.2.3: "This saves 50% in the cost
// of the OCSes and fiber").
func OCSSavingsFromBidi() float64 {
	// Duplex needs 96 OCSes and twice the strands; bidi needs 48.
	duplex := BOM{Name: "duplex-ocs-plant"}
	duplex.Add(PalomarOCS, 96)
	duplex.Add(FiberStrand, 2*podEndpoints(PodCubes))
	bidi := BOM{Name: "bidi-ocs-plant"}
	bidi.Add(PalomarOCS, 48)
	bidi.Add(FiberStrand, podEndpoints(PodCubes))
	return 1 - bidi.Cost()/duplex.Cost()
}
