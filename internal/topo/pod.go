package topo

import (
	"errors"
	"fmt"
)

// NumOCS is the number of OCSes in a full pod wiring plan: one per
// (dimension, face index) pair = 3×16 = 48 (Appendix A: "each 4×4×4 block
// connects to 6 × 16 ÷ 2 = 48 OCSes").
const NumOCS = 3 * FaceLinks

// OCSID identifies one OCS in the pod wiring plan.
type OCSID int

// OCSFor returns the OCS serving face index idx of dimension dim. The plus
// and minus faces of a cube for (dim, idx) land on the same OCS: the plus
// side on north port c, the minus side on south port c (c = cube id).
func OCSFor(dim, idx int) (OCSID, error) {
	if dim < 0 || dim > 2 || idx < 0 || idx >= FaceLinks {
		return 0, fmt.Errorf("topo: invalid face (dim %d, idx %d)", dim, idx)
	}
	return OCSID(dim*FaceLinks + idx), nil
}

// DimOf returns the torus dimension an OCS serves.
func (o OCSID) DimOf() int { return int(o) / FaceLinks }

// IndexOf returns the face index an OCS serves.
func (o OCSID) IndexOf() int { return int(o) % FaceLinks }

// CircuitReq is one OCS cross-connection required to realize a slice: on
// OCS, connect north port North (the + face of cube North) to south port
// South (the − face of cube South), creating a directed inter-cube torus
// link North→South along the OCS's dimension.
type CircuitReq struct {
	OCS          OCSID
	North, South int // cube IDs
}

// Slice is a composed 3D-torus sub-machine: a shape plus the assignment of
// physical cubes to logical torus positions.
type Slice struct {
	Shape Shape
	// CubeAt[x][y][z] is the physical cube at logical cube-grid position
	// (x, y, z).
	CubeAt [][][]int
}

// Errors returned by slice composition.
var (
	ErrCubeCount = errors.New("topo: cube count does not match shape")
	ErrDupCube   = errors.New("topo: duplicate cube in slice")
	ErrBadShape  = errors.New("topo: invalid shape")
)

// ComposeSlice assigns the given physical cubes (in row-major logical
// order) to a slice of the given shape. Thanks to the OCS indirection the
// cubes need not be physically contiguous — that is the scheduling
// flexibility of §4.2.4.
func ComposeSlice(shape Shape, cubes []int) (*Slice, error) {
	if !shape.Valid() {
		return nil, fmt.Errorf("%w: %v", ErrBadShape, shape)
	}
	a, b, c := shape.CubeGrid()
	if len(cubes) != a*b*c {
		return nil, fmt.Errorf("%w: %d cubes for %v (need %d)", ErrCubeCount, len(cubes), shape, a*b*c)
	}
	seen := make(map[int]bool, len(cubes))
	for _, id := range cubes {
		if seen[id] {
			return nil, fmt.Errorf("%w: cube %d", ErrDupCube, id)
		}
		seen[id] = true
	}
	sl := &Slice{Shape: shape}
	sl.CubeAt = make([][][]int, a)
	i := 0
	for x := 0; x < a; x++ {
		sl.CubeAt[x] = make([][]int, b)
		for y := 0; y < b; y++ {
			sl.CubeAt[x][y] = make([]int, c)
			for z := 0; z < c; z++ {
				sl.CubeAt[x][y][z] = cubes[i]
				i++
			}
		}
	}
	return sl, nil
}

// RequiredCircuits returns every OCS cross-connection needed to realize the
// slice's 3D torus with wraparound links. For each dimension the cubes on
// each line form a ring: + face of each cube connects to the − face of its
// successor. A dimension of one cube wraps onto itself (the OCS connects
// the cube's + face to its own − face), which is why opposing faces share
// an OCS (Fig A.1).
func (sl *Slice) RequiredCircuits() []CircuitReq {
	a, b, c := sl.Shape.CubeGrid()
	dims := [3]int{a, b, c}
	var reqs []CircuitReq
	at := func(d, i, u, v int) int {
		switch d {
		case 0:
			return sl.CubeAt[i][u][v]
		case 1:
			return sl.CubeAt[u][i][v]
		default:
			return sl.CubeAt[u][v][i]
		}
	}
	for d := 0; d < 3; d++ {
		var du, dv int
		switch d {
		case 0:
			du, dv = b, c
		case 1:
			du, dv = a, c
		default:
			du, dv = a, b
		}
		for u := 0; u < du; u++ {
			for v := 0; v < dv; v++ {
				for i := 0; i < dims[d]; i++ {
					from := at(d, i, u, v)
					to := at(d, (i+1)%dims[d], u, v)
					for idx := 0; idx < FaceLinks; idx++ {
						o, _ := OCSFor(d, idx)
						reqs = append(reqs, CircuitReq{OCS: o, North: from, South: to})
					}
				}
			}
		}
	}
	return reqs
}
