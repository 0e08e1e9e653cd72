package collective

import "fmt"

// The bodies below were deleted from the package in PR 25: nothing
// outside tests composed them (deadexport over cmd/, examples/ and bench/).
// The floor tests that exercised them run against these copies until a
// later PR retires them; no other test may start using them.

// Additional collectives and an asymmetric-torus variant. Slices composed
// by the lightwave fabric can have very different per-dimension ring
// lengths (4×4×256), and scale-out jobs mix ICI and DCN dimensions with
// very different link classes; AsymmetricTorus models a torus whose
// dimensions have distinct links.

// AsymmetricTorus is a torus whose dimensions use different link classes —
// e.g. intra-pod ICI dimensions plus a cross-pod DCN dimension.
type AsymmetricTorus struct {
	Dims  []int
	Links []Link
}

// Validate checks the dimension/link pairing.
func (t AsymmetricTorus) Validate() error {
	if len(t.Dims) != len(t.Links) {
		return fmt.Errorf("%w: %d dims, %d links", ErrBadRing, len(t.Dims), len(t.Links))
	}
	for i, d := range t.Dims {
		if d < 1 || t.Links[i].BandwidthBps <= 0 {
			return fmt.Errorf("%w: dim %d", ErrBadRing, i)
		}
	}
	return nil
}

// Nodes returns the torus size.
func (t AsymmetricTorus) Nodes() int {
	n := 1
	for _, d := range t.Dims {
		n *= d
	}
	return n
}

// AllReduceTime composes per-dimension ring phases like Torus.AllReduceTime
// but with each dimension's own link class.
func (t AsymmetricTorus) AllReduceTime(s float64) (float64, error) {
	if err := t.Validate(); err != nil {
		return 0, err
	}
	total := 0.0
	cur := s
	sizes := make([]float64, 0, len(t.Dims))
	for i, d := range t.Dims {
		r := Ring{N: d, Link: t.Links[i]}
		rt, err := r.ReduceScatterTime(cur)
		if err != nil {
			return 0, err
		}
		total += rt
		sizes = append(sizes, cur)
		cur /= float64(d)
	}
	for i := len(t.Dims) - 1; i >= 0; i-- {
		r := Ring{N: t.Dims[i], Link: t.Links[i]}
		at, err := r.AllGatherTime(sizes[i])
		if err != nil {
			return 0, err
		}
		total += at
	}
	return total, nil
}

// BottleneckDim returns the index of the dimension contributing the most
// time to an all-reduce of S bytes — the dimension topology engineering
// should widen first.
func (t AsymmetricTorus) BottleneckDim(s float64) (int, error) {
	if err := t.Validate(); err != nil {
		return 0, err
	}
	worst, worstT := -1, -1.0
	cur := s
	for i, d := range t.Dims {
		r := Ring{N: d, Link: t.Links[i]}
		rt, err := r.ReduceScatterTime(cur)
		if err != nil {
			return 0, err
		}
		if 2*rt > worstT {
			worst, worstT = i, 2*rt
		}
		cur /= float64(d)
	}
	return worst, nil
}

// AllReduceTime returns the multi-dimensional torus all-reduce time for S
// bytes per node: reduce-scatter along each dimension in turn (payload
// shrinking by the dimension size each phase), then all-gather in reverse.
func (t Torus) AllReduceTime(s float64) (float64, error) {
	if len(t.Dims) == 0 {
		return 0, nil
	}
	total := 0.0
	cur := s
	sizes := make([]float64, 0, len(t.Dims))
	for _, d := range t.Dims {
		if d < 1 {
			return 0, fmt.Errorf("%w: dim %d", ErrBadRing, d)
		}
		r := Ring{N: d, Link: t.Link}
		rt, err := r.ReduceScatterTime(cur)
		if err != nil {
			return 0, err
		}
		total += rt
		sizes = append(sizes, cur)
		cur /= float64(d)
	}
	for i := len(t.Dims) - 1; i >= 0; i-- {
		r := Ring{N: t.Dims[i], Link: t.Link}
		at, err := r.AllGatherTime(sizes[i])
		if err != nil {
			return 0, err
		}
		total += at
	}
	return total, nil
}

// AllToAllTime lower-bounds an all-to-all where every node contributes S
// bytes spread uniformly over all peers: half the total payload must cross
// the minimum bisection.
func (t Torus) AllToAllTime(s float64, bisectionLinks int) (float64, error) {
	if bisectionLinks <= 0 {
		return 0, fmt.Errorf("%w: bisection %d", ErrBadRing, bisectionLinks)
	}
	n := float64(t.Nodes())
	crossing := n * s / 2
	return crossing / (float64(bisectionLinks) * t.Link.BandwidthBps), nil
}

// AllGatherTime returns the time to all-gather to S total bytes per member.
// It is symmetric to reduce-scatter.
func (r Ring) AllGatherTime(s float64) (float64, error) {
	return r.ReduceScatterTime(s)
}
