// Package avail models the availability benefits of the reconfigurable
// lightwave fabric (§4.2.2, Fig 15): fabric availability as a function of
// per-OCS availability and OCS count (which the bidi transceivers halve and
// halve again), and the goodput of a superpod that must hold back elemental
// cubes to meet a 97% system-availability target — where a reconfigurable
// fabric can swap any healthy cube into a slice while a static fabric
// cannot.
package avail

import (
	"errors"
	"fmt"
	"math"

	"lightwave/internal/optics"
	"lightwave/internal/sim"
)

// FabricAvailability returns the probability that every OCS of the fabric
// is up: "a single failure in the set of OCSes that provide full
// connectivity between the elemental cubes will degrade the performance of
// any slice composed of more than one elemental cube", so the fabric is
// available only when all OCSes are.
func FabricAvailability(perOCS float64, numOCS int) float64 {
	if numOCS <= 0 {
		return 1
	}
	return math.Pow(perOCS, float64(numOCS))
}

// LanesPerConnection is the number of optical lanes of one inter-cube
// connection (§4.2.2: "Each connection has 8 optical lanes").
const LanesPerConnection = 8

// ErrBadModule is returned for transceiver generations that cannot carry a
// superpod connection.
var ErrBadModule = errors.New("avail: module unsuitable for superpod connection")

// OCSCount returns the number of OCSes a 64-cube superpod needs when built
// with the given transceiver generation: 96 for standard CWDM4 duplex, 48
// for CWDM4 bidi, 24 for CWDM8 bidi (Fig 15a). The count scales with the
// fiber strands per 8-lane connection: a duplex module needs separate
// transmit and receive strands; a bidi module needs one strand per WDM
// engine.
func OCSCount(gen optics.Generation) (int, error) {
	lanes := gen.Grid.Lanes()
	if lanes <= 0 || LanesPerConnection%lanes != 0 {
		return 0, fmt.Errorf("%w: %s has %d lanes", ErrBadModule, gen.Name, lanes)
	}
	engines := LanesPerConnection / lanes
	strands := engines
	if !gen.Bidi {
		strands = 2 * engines
	}
	// The baseline wiring (48 OCSes, Appendix A) corresponds to two
	// strands per connection.
	return 48 * strands / 2, nil
}

// PodModel parameterizes the goodput analysis of Fig 15b.
type PodModel struct {
	// Cubes is the number of elemental cubes in the pod (64).
	Cubes int
	// ServerAvail is the availability of one CPU host/server.
	ServerAvail float64
	// FailureDomain is the effective number of serially-required
	// server-class components per cube (16 hosts plus shared rack
	// components; calibrated so the published goodput points of Fig 15b
	// hold).
	FailureDomain int
	// Target is the required system availability (the paper holds it at
	// 97%).
	Target float64
}

// DefaultPod returns the Fig 15b configuration for the given server
// availability.
func DefaultPod(serverAvail float64) PodModel {
	return PodModel{Cubes: 64, ServerAvail: serverAvail, FailureDomain: 24, Target: 0.97}
}

// CubeAvail returns the probability that one elemental cube is fully
// healthy.
func (p PodModel) CubeAvail() float64 {
	return math.Pow(p.ServerAvail, float64(p.FailureDomain))
}

// ReconfigurableSlices returns the number of k-cube slices the pod can
// advertise with a reconfigurable fabric: the largest m such that the
// probability of at least m·k healthy cubes (anywhere in the pod — the OCS
// can swap a bad cube for any healthy one) meets the target.
func (p PodModel) ReconfigurableSlices(k int) int {
	if k <= 0 || k > p.Cubes {
		return 0
	}
	return largestQuorum(p.Cubes, p.CubeAvail(), k, p.Target)
}

// largestQuorum returns the largest m with m·k ≤ n such that at least m·k
// of n independent units, each up with probability prob, are up with
// probability ≥ target. n is fixed across the search, so the binomial
// weights are tabulated once.
func largestQuorum(n int, prob float64, k int, target float64) int {
	lnChoose := sim.LogChooseTable(n)
	m := 0
	for (m+1)*k <= n && binomialSurvival(lnChoose, prob, (m+1)*k) >= target {
		m++
	}
	return m
}

// staticGroups partitions the pod into fixed k-cube groups for the static
// fabric: groups full slices plus leftover cubes that cannot form one. A
// static fabric cannot recombine cubes across group boundaries, so the
// leftover cubes are modeled as permanently held back — excluded from the
// advertisement by both the closed-form sizing and the Monte Carlo
// sampler, never silently dropped.
func (p PodModel) staticGroups(k int) (groups, leftover int) {
	return p.Cubes / k, p.Cubes % k
}

// StaticSlices returns the number of k-cube slices a static fabric can
// advertise: the pod is partitioned into fixed contiguous slices and a
// slice is lost if any of its cubes fails ("a static configuration cannot
// [swap out a bad elemental cube]"). The largest m such that at least m of
// the fixed slices are fully healthy with target probability. When Cubes
// is not a multiple of k the remainder cubes are held back (see
// staticGroups).
func (p PodModel) StaticSlices(k int) int {
	if k <= 0 || k > p.Cubes {
		return 0
	}
	groups, _ := p.staticGroups(k)
	pSlice := math.Pow(p.CubeAvail(), float64(k))
	return largestQuorum(groups, pSlice, 1, p.Target)
}

// Goodput returns the fraction of the pod's TPUs that can be advertised in
// k-cube slices while meeting the availability target.
func (p PodModel) Goodput(k int, reconfigurable bool) float64 {
	var m int
	if reconfigurable {
		m = p.ReconfigurableSlices(k)
	} else {
		m = p.StaticSlices(k)
	}
	return float64(m*k) / float64(p.Cubes)
}

// HoldBack returns the number of cubes that must be held back (not
// advertised) for single-cube slices under the reconfigurable fabric — the
// quantity the paper notes is "directly proportional to the failure rate of
// an individual server".
func (p PodModel) HoldBack() int {
	return p.Cubes - p.ReconfigurableSlices(1)
}

// binomialSurvival returns P(X >= m) for X ~ Binomial(n, prob), computed
// with log-domain terms for numerical stability. lnChoose is
// sim.LogChooseTable(n).
func binomialSurvival(lnChoose []float64, prob float64, m int) float64 {
	n := len(lnChoose) - 1
	if m <= 0 {
		return 1
	}
	if m > n {
		return 0
	}
	if prob <= 0 {
		return 0
	}
	if prob >= 1 {
		return 1
	}
	lp := math.Log(prob)
	lq := math.Log1p(-prob)
	sum := 0.0
	for i := m; i <= n; i++ {
		sum += math.Exp(lnChoose[i] + float64(i)*lp + float64(n-i)*lq)
	}
	if sum > 1 {
		sum = 1
	}
	return sum
}
