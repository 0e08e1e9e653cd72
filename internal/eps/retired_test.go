package eps

import (
	"errors"
	"fmt"
)

// Package eps ships no code: the Clos builder below was deleted, with its
// latency-under-load model, because nothing outside tests composed them, and
// the two spine-port constants the §4.2 spine-full BOM needs live in cost. The
// floor tests that exercised the model run against these copies until
// they are retired; no other test may start using them.

// Chassis describes one electrical packet switch.
type Chassis struct {
	Name string
	// Radix is the number of ports.
	Radix int
	// PortGbps is the per-port rate.
	PortGbps float64
	// CostUnits is the chassis cost in catalog units.
	CostUnits float64
	// PowerW is the chassis power draw.
	PowerW float64
}

// DCNChassis returns the datacenter-class EPS used in the Table 1 DCN
// fabric option.
func DCNChassis() Chassis {
	return Chassis{
		Name:      "eps-64x800g",
		Radix:     64,
		PortGbps:  800,
		CostUnits: 265,
		PowerW:    435,
	}
}

// ErrInfeasible is returned when a Clos cannot be built from the chassis.
var ErrInfeasible = errors.New("eps: infeasible clos")

// Clos is a folded-Clos (leaf/spine, optionally 3-tier) fabric of identical
// chassis serving a number of endpoint ports.
type Clos struct {
	Chassis   Chassis
	Endpoints int
	Tiers     int // 2 or 3
	// Oversubscription is endpoint bandwidth over uplink bandwidth at the
	// leaf (1 = non-blocking).
	Oversubscription float64

	Leaves, Spines, Supers int
	// Links per tier boundary.
	LeafSpineLinks, SpineSuperLinks int
}

// NewClos sizes a non-blocking-or-oversubscribed Clos for the given number
// of endpoints.
func NewClos(ch Chassis, endpoints, tiers int, oversub float64) (*Clos, error) {
	if endpoints <= 0 || (tiers != 2 && tiers != 3) || oversub < 1 {
		return nil, fmt.Errorf("%w: endpoints=%d tiers=%d oversub=%g", ErrInfeasible, endpoints, tiers, oversub)
	}
	c := &Clos{Chassis: ch, Endpoints: endpoints, Tiers: tiers, Oversubscription: oversub}
	// Leaf: split radix between down (endpoints) and up, with oversub.
	down := int(float64(ch.Radix) * oversub / (1 + oversub))
	if down <= 0 || down >= ch.Radix {
		return nil, fmt.Errorf("%w: radix %d too small", ErrInfeasible, ch.Radix)
	}
	up := ch.Radix - down
	c.Leaves = ceilDiv(endpoints, down)
	c.LeafSpineLinks = c.Leaves * up
	if tiers == 2 {
		c.Spines = ceilDiv(c.LeafSpineLinks, ch.Radix)
		return c, nil
	}
	// 3-tier: spines split radix down/up equally.
	c.Spines = ceilDiv(c.LeafSpineLinks, ch.Radix/2)
	c.SpineSuperLinks = c.Spines * (ch.Radix / 2)
	c.Supers = ceilDiv(c.SpineSuperLinks, ch.Radix)
	return c, nil
}

// Switches returns the total chassis count.
func (c *Clos) Switches() int { return c.Leaves + c.Spines + c.Supers }

// FabricLinks returns the number of inter-switch links (each needing a
// transceiver at both ends).
func (c *Clos) FabricLinks() int { return c.LeafSpineLinks + c.SpineSuperLinks }

// Cost returns the chassis cost of the fabric (transceivers are accounted
// by the cost package).
func (c *Clos) Cost() float64 { return float64(c.Switches()) * c.Chassis.CostUnits }

// Power returns the chassis power of the fabric.
func (c *Clos) Power() float64 { return float64(c.Switches()) * c.Chassis.PowerW }

// PathHops returns the switch hops an endpoint-to-endpoint path takes:
// same-leaf traffic takes 1, cross-leaf 3 (leaf-spine-leaf), cross-pod in a
// 3-tier fabric 5.
func (c *Clos) PathHops(sameLeaf, samePod bool) int {
	switch {
	case sameLeaf:
		return 1
	case c.Tiers == 2 || samePod:
		return 3
	default:
		return 5
	}
}

// BisectionGbps returns the fabric's bisection bandwidth.
func (c *Clos) BisectionGbps() float64 {
	return float64(c.LeafSpineLinks) * c.Chassis.PortGbps / 2 / c.Oversubscription
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }
