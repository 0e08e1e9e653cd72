// Package collective provides cost models for the collective communication
// patterns of §2.2 and Fig 2: bidirectional ring reduce-scatter /
// all-gather / all-reduce on torus dimensions over the ICI, and the
// hierarchical ICI-DCN all-reduce used to scale training across superpods.
// Sizes are bytes, bandwidths bytes/s, times seconds.
package collective

import (
	"errors"
	"fmt"
)

// Link describes one interconnect link class.
type Link struct {
	// BandwidthBps is the per-direction bandwidth in bytes per second.
	BandwidthBps float64
	// LatencySec is the per-hop latency.
	LatencySec float64
}

// ICILink returns the TPU v4 inter-chip-interconnect link class: ~50 GB/s
// per direction with sub-microsecond deterministic per-hop latency (§3.2.1:
// an OCS adds "only a small amount of deterministic latency").
func ICILink() Link {
	return Link{BandwidthBps: 50e9, LatencySec: 0.8e-6}
}

// DCNLink returns the per-chip effective datacenter-network bandwidth for
// cross-pod transfers. §2.2: the scale-up ICI provides "50–100× more
// bandwidth than the DCN" per TPU.
func DCNLink() Link {
	return Link{BandwidthBps: 0.625e9, LatencySec: 10e-6} // 80× below ICI
}

// ErrBadRing is returned for degenerate ring parameters.
var ErrBadRing = errors.New("collective: invalid ring")

// Ring models a bidirectional ring of n members over a link class. Ring
// collectives split the payload across the two directions (the red and blue
// rings of Fig 2b/2c).
type Ring struct {
	N    int
	Link Link
}

func (r Ring) check() error {
	if r.N < 1 || r.Link.BandwidthBps <= 0 {
		return fmt.Errorf("%w: n=%d bw=%g", ErrBadRing, r.N, r.Link.BandwidthBps)
	}
	return nil
}

// ReduceScatterTime returns the time to reduce-scatter S bytes per member:
// (n−1) steps, each moving S/(2n) bytes per direction.
func (r Ring) ReduceScatterTime(s float64) (float64, error) {
	if err := r.check(); err != nil {
		return 0, err
	}
	if r.N == 1 || s <= 0 {
		return 0, nil
	}
	steps := float64(r.N - 1)
	chunk := s / (2 * float64(r.N))
	return steps * (chunk/r.Link.BandwidthBps + r.Link.LatencySec), nil
}

// AllReduceTime returns the bidirectional-ring all-reduce time for S bytes:
// a reduce-scatter followed by an all-gather.
func (r Ring) AllReduceTime(s float64) (float64, error) {
	rs, err := r.ReduceScatterTime(s)
	if err != nil {
		return 0, err
	}
	return 2 * rs, nil
}

// Torus composes ring collectives over multiple torus dimensions.
type Torus struct {
	Dims []int
	Link Link
}

// Nodes returns the torus size.
func (t Torus) Nodes() int {
	n := 1
	for _, d := range t.Dims {
		n *= d
	}
	return n
}

// ReduceScatterTime reduce-scatters S bytes per node across all dimensions.
func (t Torus) ReduceScatterTime(s float64) (float64, error) {
	total := 0.0
	cur := s
	for _, d := range t.Dims {
		r := Ring{N: d, Link: t.Link}
		rt, err := r.ReduceScatterTime(cur)
		if err != nil {
			return 0, err
		}
		total += rt
		cur /= float64(d)
	}
	return total, nil
}

// AllGatherTime all-gathers to S bytes per node across all dimensions.
func (t Torus) AllGatherTime(s float64) (float64, error) {
	// Mirror of reduce-scatter.
	return t.ReduceScatterTime(s)
}
