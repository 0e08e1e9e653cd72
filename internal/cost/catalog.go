// Package cost implements the cost and power models behind Table 1 (pod
// fabric options), the spine-free DCN savings quoted in §4.2 (from [47]),
// the deployment-modularity savings of §4.2.3, and the OCS technology
// comparison of Table C.1. Costs are in relative catalog units (the paper
// publishes only ratios); power is in watts. Unit values are calibrated so
// the published ratios hold — see DESIGN.md.
package cost

import "fmt"

// Component is one purchasable part.
type Component struct {
	Name      string
	CostUnits float64
	PowerW    float64
}

// Catalog components.
var (
	// TPUCube is one 64-chip rack including chips, hosts, and intra-rack
	// electrical ICI.
	TPUCube = Component{Name: "tpu-cube", CostUnits: 1500, PowerW: 7000}
	// SRModule is the short-range, low-cost optical module of the static
	// baseline fabric.
	SRModule = Component{Name: "sr-module", CostUnits: 1.0, PowerW: 9}
	// BidiModule is the custom bidi CWDM4 OSFP module.
	BidiModule = Component{Name: "bidi-osfp", CostUnits: 1.35, PowerW: 9}
	// DCNModule is the 800G module used in the EPS fabric option.
	DCNModule = Component{Name: "dcn-800g", CostUnits: 1.5, PowerW: 9}
	// PalomarOCS is one 136×136 OCS chassis.
	PalomarOCS = Component{Name: "palomar-ocs", CostUnits: 77, PowerW: 108}
	// EPSChassis is one 64×800G packet switch.
	EPSChassis = Component{Name: "eps-64x800g", CostUnits: 265, PowerW: 435}
	// HostNIC is one DCN NIC.
	HostNIC = Component{Name: "host-nic", CostUnits: 1.0, PowerW: 15}
	// CablePair is a short-reach cable assembly for one connection.
	CablePair = Component{Name: "cable-pair", CostUnits: 0.2, PowerW: 0}
	// FiberStrand is structured single-mode fiber with patching for one
	// strand.
	FiberStrand = Component{Name: "fiber-strand", CostUnits: 0.15, PowerW: 0}
)

// Line is a quantity of one component.
type Line struct {
	Component Component
	Qty       int
}

// BOM is a bill of materials.
type BOM struct {
	Name  string
	Lines []Line
}

// Add appends qty of component c.
func (b *BOM) Add(c Component, qty int) {
	if qty == 0 {
		return
	}
	b.Lines = append(b.Lines, Line{Component: c, Qty: qty})
}

// Merge appends all lines of other.
func (b *BOM) Merge(other BOM) {
	b.Lines = append(b.Lines, other.Lines...)
}

// Cost returns the total cost in catalog units.
func (b BOM) Cost() float64 {
	t := 0.0
	for _, l := range b.Lines {
		t += l.Component.CostUnits * float64(l.Qty)
	}
	return t
}

// Power returns the total power in watts.
func (b BOM) Power() float64 {
	t := 0.0
	for _, l := range b.Lines {
		t += l.Component.PowerW * float64(l.Qty)
	}
	return t
}

// String summarizes the BOM.
func (b BOM) String() string {
	return fmt.Sprintf("%s: cost=%.1f power=%.0fW (%d lines)", b.Name, b.Cost(), b.Power(), len(b.Lines))
}
