package cost

// Spine-full vs spine-free DCN comparison (§2.1/§4.2, results from [47]):
// replacing the spine layer with OCSes eliminates the spine chassis and the
// spine-side transceivers, delivering ≈30% capex and ≈41% power reduction.

// The compared network is a representative Jupiter-scale DCN.
const (
	// aggregationBlocks is the number of aggregation blocks (ABs), and
	// uplinksPerBlock the number of fabric-facing links per AB.
	aggregationBlocks = 64
	uplinksPerBlock   = 256
	// abCost / abPowerW cover one aggregation block (its own switches
	// and server-facing optics), identical across both designs.
	abCost   = 1000
	abPowerW = 5000
	// spinePortCost and spinePortPowerW are the per-port cost and power
	// of a spine block, the electrical packet switch the spine-full
	// design buys.
	spinePortCost   = 1.67
	spinePortPowerW = 12.25
)

var (
	abComponent = Component{Name: "aggregation-block", CostUnits: abCost, PowerW: abPowerW}
	spinePort   = Component{Name: "spine-port", CostUnits: spinePortCost, PowerW: spinePortPowerW}
	// ocsPort is the per-duplex-port share of a Palomar OCS.
	ocsPort = Component{
		Name:      "ocs-port",
		CostUnits: PalomarOCS.CostUnits / 128,
		PowerW:    PalomarOCS.PowerW / 128,
	}
)

// spineFullDCN returns the traditional Fig 1a design: every AB uplink runs
// to a spine block port with transceivers at both ends.
func spineFullDCN() BOM {
	b := BOM{Name: "spine-full-dcn"}
	uplinks := aggregationBlocks * uplinksPerBlock
	b.Add(abComponent, aggregationBlocks)
	b.Add(BidiModule, 2*uplinks) // AB side + spine side
	b.Add(spinePort, uplinks)
	return b
}

// spineFreeDCN returns the Fig 1b design: AB uplinks terminate on OCS
// ports; there is no spine layer and no spine-side transceivers.
func spineFreeDCN() BOM {
	b := BOM{Name: "spine-free-dcn"}
	uplinks := aggregationBlocks * uplinksPerBlock
	b.Add(abComponent, aggregationBlocks)
	b.Add(BidiModule, uplinks) // AB side only
	b.Add(ocsPort, uplinks)
	return b
}

// DCNSavings returns the capex and power reductions of the spine-free
// design relative to the spine-full design.
func DCNSavings() (capex, power float64) {
	full := spineFullDCN()
	free := spineFreeDCN()
	return 1 - free.Cost()/full.Cost(), 1 - free.Power()/full.Power()
}
