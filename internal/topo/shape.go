// Package topo models the TPU v4 superpod interconnect topology of Fig 14
// and Appendix A: 4×4×4 elemental cubes (64 chips, one rack) whose six faces
// carry 16 optical links each, wired so that the + and − faces of every
// (dimension, face-index) pair land on the same OCS — 48 OCSes for a
// 64-cube, 4096-chip pod. Slices are 3D-torus sub-machines composed of
// cubes; the package enumerates legal slice shapes, generates the OCS
// circuits that realize a slice, routes on the resulting torus, and computes
// bisection bandwidth.
package topo

import (
	"fmt"
	"sort"
)

// CubeDim is the side of an elemental cube in chips (4×4×4 = 64).
const CubeDim = 4

// CubeChips is the number of TPU chips per elemental cube.
const CubeChips = CubeDim * CubeDim * CubeDim

// HostsPerCube is the number of CPU hosts per cube (4 TPUs per host).
const HostsPerCube = CubeChips / 4

// FaceLinks is the number of optical links per cube face (4×4).
const FaceLinks = CubeDim * CubeDim

// Shape is a slice shape in chips per dimension. Each dimension is a
// multiple of CubeDim. Order matters: by convention (§4.2.1) the 1st
// dimension carries model parallelism and the 2nd/3rd data parallelism.
type Shape struct {
	X, Y, Z int
}

// Chips returns the total chip count X·Y·Z.
func (s Shape) Chips() int { return s.X * s.Y * s.Z }

// Cubes returns the total cube count.
func (s Shape) Cubes() int { return s.Chips() / CubeChips }

// CubeGrid returns the shape in cubes per dimension.
func (s Shape) CubeGrid() (a, b, c int) {
	return s.X / CubeDim, s.Y / CubeDim, s.Z / CubeDim
}

// String formats the shape as "XxYxZ".
func (s Shape) String() string { return fmt.Sprintf("%dx%dx%d", s.X, s.Y, s.Z) }

// Valid reports whether every dimension is a positive multiple of CubeDim.
func (s Shape) Valid() bool {
	for _, d := range []int{s.X, s.Y, s.Z} {
		if d <= 0 || d%CubeDim != 0 {
			return false
		}
	}
	return true
}

// Dims returns the dimensions as a slice.
func (s Shape) Dims() [3]int { return [3]int{s.X, s.Y, s.Z} }

// ShapesFor enumerates every ordered slice shape with exactly the given
// number of cubes (all ordered factorizations a·b·c = cubes, as shapes
// 4a×4b×4c). For a full 4096-chip pod (64 cubes) this spans 4×4×256
// through 16×16×16 (§4.2.1).
func ShapesFor(cubes int) []Shape {
	var shapes []Shape
	for a := 1; a <= cubes; a++ {
		if cubes%a != 0 {
			continue
		}
		rest := cubes / a
		for b := 1; b <= rest; b++ {
			if rest%b != 0 {
				continue
			}
			c := rest / b
			shapes = append(shapes, Shape{a * CubeDim, b * CubeDim, c * CubeDim})
		}
	}
	sort.Slice(shapes, func(i, j int) bool {
		if shapes[i].X != shapes[j].X {
			return shapes[i].X < shapes[j].X
		}
		if shapes[i].Y != shapes[j].Y {
			return shapes[i].Y < shapes[j].Y
		}
		return shapes[i].Z < shapes[j].Z
	})
	return shapes
}

// BisectionLinks returns the number of ICI links crossing the minimum
// bisection of the 3D torus: cutting across dimension d severs 2·N/S_d
// links (each line along d crosses the cut twice thanks to the wraparound),
// except that a dimension of size 2 has direct and wrap links between the
// same node pair (N/S_d distinct pairs ×2 links kept as 2·N/S_d — they are
// physically distinct cables) and a dimension of size 1 contributes no
// inter-node links and is skipped.
func (s Shape) BisectionLinks() int {
	n := s.Chips()
	best := -1
	for _, d := range s.Dims() {
		if d == 1 {
			continue
		}
		links := 2 * n / d
		if best == -1 || links < best {
			best = links
		}
	}
	if best == -1 {
		return 0
	}
	return best
}

// MaxBisectionShape returns the shape among ShapesFor(cubes) with the
// highest bisection bandwidth — the paper's static baseline (16×16×16 for a
// full pod).
func MaxBisectionShape(cubes int) Shape {
	best := Shape{}
	bestLinks := -1
	for _, s := range ShapesFor(cubes) {
		if l := s.BisectionLinks(); l > bestLinks {
			best, bestLinks = s, l
		}
	}
	return best
}
