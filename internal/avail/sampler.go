package avail

import "lightwave/internal/par"

// The Fig 15b goodput-vs-slice-size surface, fanned out across the worker
// pool.

// GoodputPoint is one cell of the Fig 15b surface.
type GoodputPoint struct {
	ServerAvail    float64
	SliceCubes     int
	Static         float64
	Reconfigurable float64
}

// GoodputSurface computes the goodput-vs-slice-size family of curves
// (Fig 15b) for every (server availability, slice size) pair, in parallel
// over grid points. The result is in row-major order: all slice sizes for
// avails[0], then avails[1], and so on.
func GoodputSurface(avails []float64, ks []int) []GoodputPoint {
	grid := make([]GoodputPoint, 0, len(avails)*len(ks))
	for _, a := range avails {
		for _, k := range ks {
			grid = append(grid, GoodputPoint{ServerAvail: a, SliceCubes: k})
		}
	}
	return par.Sweep("avail_goodput_surface", grid, func(_ int, pt GoodputPoint) GoodputPoint {
		p := DefaultPod(pt.ServerAvail)
		pt.Static = p.Goodput(pt.SliceCubes, false)
		pt.Reconfigurable = p.Goodput(pt.SliceCubes, true)
		return pt
	})
}
