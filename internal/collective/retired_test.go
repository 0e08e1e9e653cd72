package collective

import "fmt"

// The bodies below were deleted from the package in PR 25: nothing
// outside tests composed them (deadexport over cmd/, examples/ and bench/).
// The floor tests that exercised them run against these copies until a
// later PR retires them; no other test may start using them.

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
