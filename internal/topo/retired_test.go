package topo

import (
	"errors"
	"fmt"
)

// The chip-level routing model, per-circuit traffic accounting, ND torus
// shapes and the Pod plant record below were deleted from the package in
// PR 25: nothing outside tests composed them (deadexport over cmd/,
// examples/ and bench/; the slice, its RequiredCircuits and the cable plan
// are what the fabric and lwplan use). The floor tests that exercised them
// run against these copies until a later PR retires them; no other test
// may start using them.

// Coord is a chip coordinate in a slice's 3D torus.
type Coord struct {
	X, Y, Z int
}

// InShape reports whether the coordinate is inside shape s.
func (c Coord) InShape(s Shape) bool {
	return c.X >= 0 && c.X < s.X && c.Y >= 0 && c.Y < s.Y && c.Z >= 0 && c.Z < s.Z
}

// torusStep returns the signed step (+1 or −1) that moves src toward dst
// along a ring of the given size by the shorter way, and the distance.
func torusStep(src, dst, size int) (step, dist int) {
	if src == dst {
		return 0, 0
	}
	fwd := (dst - src + size) % size
	bwd := (src - dst + size) % size
	if fwd <= bwd {
		return 1, fwd
	}
	return -1, bwd
}

// TorusDistance returns the minimal hop count between two chips on the
// torus of shape s.
func TorusDistance(s Shape, a, b Coord) int {
	_, dx := torusStep(a.X, b.X, s.X)
	_, dy := torusStep(a.Y, b.Y, s.Y)
	_, dz := torusStep(a.Z, b.Z, s.Z)
	return dx + dy + dz
}

// Route returns the dimension-ordered (X, then Y, then Z) shortest path
// from src to dst on the torus, including both endpoints. In normal
// operation "the routing is deterministic and set by the slice
// configuration" (§4.2.1); dimension order is the standard deadlock-free
// deterministic choice.
func Route(s Shape, src, dst Coord) ([]Coord, error) {
	if !src.InShape(s) || !dst.InShape(s) {
		return nil, fmt.Errorf("topo: route endpoints %v -> %v outside shape %v", src, dst, s)
	}
	path := []Coord{src}
	cur := src
	for cur.X != dst.X {
		step, _ := torusStep(cur.X, dst.X, s.X)
		cur.X = (cur.X + step + s.X) % s.X
		path = append(path, cur)
	}
	for cur.Y != dst.Y {
		step, _ := torusStep(cur.Y, dst.Y, s.Y)
		cur.Y = (cur.Y + step + s.Y) % s.Y
		path = append(path, cur)
	}
	for cur.Z != dst.Z {
		step, _ := torusStep(cur.Z, dst.Z, s.Z)
		cur.Z = (cur.Z + step + s.Z) % s.Z
		path = append(path, cur)
	}
	return path, nil
}

// AvgHopDistance returns the exact mean pairwise hop distance of the torus
// of shape s (sum of per-dimension ring mean distances).
func AvgHopDistance(s Shape) float64 {
	return ringMeanDistance(s.X) + ringMeanDistance(s.Y) + ringMeanDistance(s.Z)
}

// ringMeanDistance is the mean shortest-path distance between two uniform
// random nodes of a ring of n nodes (including the zero self-distance).
func ringMeanDistance(n int) float64 {
	if n <= 1 {
		return 0
	}
	sum := 0
	for d := 0; d < n; d++ {
		fwd := d
		bwd := n - d
		if bwd < fwd {
			fwd = bwd
		}
		sum += fwd
	}
	return float64(sum) / float64(n)
}

// Diameter returns the maximum shortest-path hop count of the torus.
func Diameter(s Shape) int {
	return s.X/2 + s.Y/2 + s.Z/2
}

// CubeOf returns the cube-grid position containing a chip coordinate.
func CubeOf(c Coord) Coord {
	return Coord{c.X / CubeDim, c.Y / CubeDim, c.Z / CubeDim}
}

// CrossesCubeBoundary reports whether the hop from a to b (adjacent chips
// on the torus) traverses an optical inter-cube link rather than an
// intra-rack electrical link.
func CrossesCubeBoundary(a, b Coord) bool {
	return CubeOf(a) != CubeOf(b)
}

// This file generates the deterministic routing state of §4.2.1 ("In normal
// operation, the routing is deterministic and set by the slice
// configuration"): per-chip next-hop decisions for dimension-ordered torus
// routing, and the mapping from a chip-level inter-cube hop to the physical
// OCS circuit that carries it.

// Direction is a signed hop along one dimension.
type Direction int

// Directions.
const (
	Plus  Direction = 1
	Minus Direction = -1
)

// Hop is a routing decision: move one step along Dim in Dir.
type Hop struct {
	Dim int // 0=X, 1=Y, 2=Z
	Dir Direction
}

// ErrSameChip is returned when source equals destination.
var ErrSameChip = errors.New("topo: routing to self")

// NextHop returns the dimension-ordered routing decision at cur toward dst
// on the torus of shape s.
func NextHop(s Shape, cur, dst Coord) (Hop, error) {
	if !cur.InShape(s) || !dst.InShape(s) {
		return Hop{}, fmt.Errorf("topo: next hop %v->%v outside %v", cur, dst, s)
	}
	if cur == dst {
		return Hop{}, ErrSameChip
	}
	dims := s.Dims()
	curD := [3]int{cur.X, cur.Y, cur.Z}
	dstD := [3]int{dst.X, dst.Y, dst.Z}
	for d := 0; d < 3; d++ {
		if curD[d] == dstD[d] {
			continue
		}
		step, _ := torusStep(curD[d], dstD[d], dims[d])
		return Hop{Dim: d, Dir: Direction(step)}, nil
	}
	return Hop{}, ErrSameChip
}

// Apply moves a coordinate by one hop with wraparound.
func (h Hop) Apply(s Shape, c Coord) Coord {
	dims := s.Dims()
	switch h.Dim {
	case 0:
		c.X = (c.X + int(h.Dir) + dims[0]) % dims[0]
	case 1:
		c.Y = (c.Y + int(h.Dir) + dims[1]) % dims[1]
	default:
		c.Z = (c.Z + int(h.Dir) + dims[2]) % dims[2]
	}
	return c
}

// RoutingTable holds the next-hop decisions of one chip for every
// destination, the in-ASIC routing state the slice configuration programs.
type RoutingTable struct {
	Shape Shape
	Self  Coord
	// hops[dst] = next hop; destinations indexed by linear coordinate.
	hops []Hop
}

// linear maps a coordinate to its table index.
func linear(s Shape, c Coord) int {
	return (c.X*s.Y+c.Y)*s.Z + c.Z
}

// BuildRoutingTable computes the full table for one chip.
func BuildRoutingTable(s Shape, self Coord) (*RoutingTable, error) {
	if !self.InShape(s) {
		return nil, fmt.Errorf("topo: chip %v outside %v", self, s)
	}
	t := &RoutingTable{Shape: s, Self: self, hops: make([]Hop, s.Chips())}
	for x := 0; x < s.X; x++ {
		for y := 0; y < s.Y; y++ {
			for z := 0; z < s.Z; z++ {
				dst := Coord{x, y, z}
				if dst == self {
					continue
				}
				h, err := NextHop(s, self, dst)
				if err != nil {
					return nil, err
				}
				t.hops[linear(s, dst)] = h
			}
		}
	}
	return t, nil
}

// Lookup returns the next hop toward dst.
func (t *RoutingTable) Lookup(dst Coord) (Hop, error) {
	if !dst.InShape(t.Shape) {
		return Hop{}, fmt.Errorf("topo: destination %v outside %v", dst, t.Shape)
	}
	if dst == t.Self {
		return Hop{}, ErrSameChip
	}
	return t.hops[linear(t.Shape, dst)], nil
}

// Entries returns the number of destinations the table covers.
func (t *RoutingTable) Entries() int { return t.Shape.Chips() - 1 }

// FaceIndexForHop returns the face link index (0..15) a chip-level hop
// crossing a cube boundary uses: the hop exits through the face position
// given by the chip's coordinates within the two non-hop dimensions.
func FaceIndexForHop(c Coord, dim int) int {
	switch dim {
	case 0:
		return (c.Y%CubeDim)*CubeDim + c.Z%CubeDim
	case 1:
		return (c.X%CubeDim)*CubeDim + c.Z%CubeDim
	default:
		return (c.X%CubeDim)*CubeDim + c.Y%CubeDim
	}
}

// CircuitForHop maps a chip-level hop from cur (inside the slice) along h
// to the OCS circuit carrying it, or ok=false for an intra-cube electrical
// hop. The returned circuit is expressed in physical cube IDs via the
// slice's placement.
func (sl *Slice) CircuitForHop(cur Coord, h Hop) (req CircuitReq, ok bool, err error) {
	if !cur.InShape(sl.Shape) {
		return CircuitReq{}, false, fmt.Errorf("topo: %v outside slice %v", cur, sl.Shape)
	}
	next := h.Apply(sl.Shape, cur)
	if !CrossesCubeBoundary(cur, next) {
		return CircuitReq{}, false, nil
	}
	o, err := OCSFor(h.Dim, FaceIndexForHop(cur, h.Dim))
	if err != nil {
		return CircuitReq{}, false, err
	}
	cc, nc := CubeOf(cur), CubeOf(next)
	from := sl.CubeAt[cc.X][cc.Y][cc.Z]
	to := sl.CubeAt[nc.X][nc.Y][nc.Z]
	// Circuits are provisioned in the + direction: the physical light path
	// from the + face of one cube to the − face of the next. A − direction
	// hop rides the same bidirectional circuit in reverse.
	if h.Dir == Plus {
		return CircuitReq{OCS: o, North: from, South: to}, true, nil
	}
	return CircuitReq{OCS: o, North: to, South: from}, true, nil
}

// Per-circuit traffic accounting: walk chip-level routes over a slice and
// attribute every optical hop to the OCS circuit that carries it. This is
// how the control plane answers "which circuits does this collective
// stress, and evenly?" — the deterministic-routing property of §4.2.1
// makes the answer exact.

// LoadMap counts messages per optical circuit.
type LoadMap map[CircuitReq]int

// RouteLoad walks the dimension-ordered route src→dst and adds one message
// to every optical circuit it crosses, returning the number of optical
// hops (intra-cube electrical hops are free).
func (sl *Slice) RouteLoad(src, dst Coord, load LoadMap) (optical int, err error) {
	if load == nil {
		return 0, fmt.Errorf("topo: nil load map")
	}
	cur := src
	for cur != dst {
		h, err := NextHop(sl.Shape, cur, dst)
		if err != nil {
			return optical, err
		}
		req, ok, err := sl.CircuitForHop(cur, h)
		if err != nil {
			return optical, err
		}
		if ok {
			load[req]++
			optical++
		}
		cur = h.Apply(sl.Shape, cur)
	}
	return optical, nil
}

// RingExchangeLoad adds one neighbor-exchange step of a ring collective
// along dim: every chip sends one message to its +1 neighbor (with
// wraparound). Ring collectives repeat this step n−1 times per phase; the
// per-step load shape is what matters for balance.
func (sl *Slice) RingExchangeLoad(dim int, load LoadMap) error {
	if dim < 0 || dim > 2 {
		return fmt.Errorf("topo: invalid dimension %d", dim)
	}
	s := sl.Shape
	for x := 0; x < s.X; x++ {
		for y := 0; y < s.Y; y++ {
			for z := 0; z < s.Z; z++ {
				cur := Coord{x, y, z}
				h := Hop{Dim: dim, Dir: Plus}
				req, ok, err := sl.CircuitForHop(cur, h)
				if err != nil {
					return err
				}
				if ok {
					load[req]++
				}
			}
		}
	}
	return nil
}

// Balance summarizes a load map: min, max, and the number of loaded
// circuits.
func (l LoadMap) Balance() (min, max, circuits int) {
	first := true
	for _, n := range l {
		if first {
			min, max = n, n
			first = false
			continue
		}
		if n < min {
			min = n
		}
		if n > max {
			max = n
		}
	}
	return min, max, len(l)
}

// AllProvisioned reports whether every loaded circuit is in the slice's
// provisioned circuit set — traffic must never need an unprogrammed path.
func (l LoadMap) AllProvisioned(sl *Slice) bool {
	prov := make(map[CircuitReq]bool, len(sl.Circuits()))
	for _, r := range sl.RequiredCircuits() {
		prov[r] = true
	}
	for r := range l {
		if !prov[r] {
			return false
		}
	}
	return true
}

// Circuits is a convenience alias used by AllProvisioned.
func (sl *Slice) Circuits() []CircuitReq { return sl.RequiredCircuits() }

// ShapeND is an n-dimensional torus shape (chips per dimension), supporting
// the paper's §6 future-work direction of 4D/6D tori.
type ShapeND []int

// Chips returns the total chip count.
func (s ShapeND) Chips() int {
	n := 1
	for _, d := range s {
		n *= d
	}
	return n
}

// BisectionLinks generalizes Shape.BisectionLinks to n dimensions.
func (s ShapeND) BisectionLinks() int {
	n := s.Chips()
	best := -1
	for _, d := range s {
		if d <= 1 {
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

// HigherDimShapes enumerates ND torus shapes with exactly the given total
// chip count and dimension count, every dimension at least 2 (a dimension
// of 1 is degenerate). This supports the §6 future-work exploration of
// 4D/6D tori, which use a different elemental block than the 3D cube.
func HigherDimShapes(chips, dims int) []ShapeND {
	if dims < 1 || chips < 1 {
		return nil
	}
	var out []ShapeND
	var rec func(rem, d int, cur []int)
	rec = func(rem, d int, cur []int) {
		if d == 1 {
			if rem < 2 {
				return
			}
			shape := make(ShapeND, 0, dims)
			shape = append(shape, cur...)
			shape = append(shape, rem)
			out = append(out, shape)
			return
		}
		for a := 2; a <= rem; a++ {
			if rem%a == 0 {
				rec(rem/a, d-1, append(cur, a))
			}
		}
	}
	rec(chips, dims, nil)
	return out
}

// Pod describes the physical plant of one superpod: how many cubes exist
// and how their faces are cabled to OCSes. The production pod has 64 cubes
// and 48 OCSes (Appendix A).
type Pod struct {
	// Cubes is the number of elemental cubes installed.
	Cubes int
}

// NewPod returns a pod with the given cube count (1..64 for the production
// Palomar wiring, which has 64 cube positions per OCS plus spares).
func NewPod(cubes int) (*Pod, error) {
	if cubes < 1 || cubes > 64 {
		return nil, fmt.Errorf("topo: pod cube count %d out of range [1,64]", cubes)
	}
	return &Pod{Cubes: cubes}, nil
}
