// DCN fabric operations: engineer a topology for a skewed demand, program
// it onto physical OCS hardware (incremental edge-coloring placement),
// shift the demand and reprogram in service, then break a switch and let
// the fabric heal around it.
//
//	go run ./examples/dcnfabric
package main

import (
	"fmt"
	"log"

	"lightwave/internal/dcn"
	"lightwave/internal/ocs"
)

func main() {
	blocks, uplinks := 10, 18
	fabric, err := dcn.NewFabric(blocks, uplinks+6, ocs.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}

	// Morning demand: hot pair (0,3).
	d1 := dcn.UniformDemand(blocks, 1e9)
	d1[0][3], d1[3][0] = 60e9, 60e9
	t1, err := dcn.Engineer(blocks, uplinks, d1)
	if err != nil {
		log.Fatal(err)
	}
	res, err := fabric.Program(t1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("initial program: %d circuits established (hot pair 0-3 gets %d trunks)\n",
		res.Established, t1.Links[0][3])

	// Afternoon demand: heat moves to (5,8); reprogram in service.
	d2 := dcn.UniformDemand(blocks, 1e9)
	d2[5][8], d2[8][5] = 60e9, 60e9
	t2, err := dcn.Engineer(blocks, uplinks, d2)
	if err != nil {
		log.Fatal(err)
	}
	res, err = fabric.Program(t2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("re-engineering: kept %d trunks in place, tore down %d, established %d\n",
		res.Kept, res.TornDown, res.Established)
	fmt.Printf("live topology matches target: %v\n", fabric.Matches(t2))

	// A switch dies; reprogram, which heals around it on the survivors.
	lost, err := fabric.FailSwitch(2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("OCS 2 failed: %d trunks lost\n", lost)
	res, err = fabric.Program(t2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("healed: re-established %d trunks on surviving switches (kept %d), topology restored: %v\n",
		res.Established, res.Kept, fabric.Matches(t2))
}
