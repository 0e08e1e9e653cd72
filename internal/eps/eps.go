// Package eps holds the electrical packet switch figures the lightwave
// fabric is compared against: the per-port cost and power of a spine block
// in the spine-full DCN option of §4.2 / [47], which cost builds its bill
// of materials from.
package eps

// SpinePortCost and SpinePortPowerW are the per-port cost and power of a
// spine block in the spine-full DCN comparison (§4.2 / [47]).
const (
	SpinePortCost   = 1.67
	SpinePortPowerW = 12.25
)
