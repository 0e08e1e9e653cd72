// Package sched implements the slice scheduling of §4.2.4: the cluster
// scheduler composes workload-sized slices from idle elemental cubes. With
// the reconfigurable lightwave fabric, any set of idle cubes can form a
// slice (the OCS provides the connectivity), while the previous-generation
// static interconnect required physically contiguous nodes — so the
// reconfigurable pod schedules at much higher utilization ("we are able to
// run the TPU V4 fleet at a higher (>98%) utilization than earlier-
// generation superpods despite the need to support 4× larger slices").
package sched

import (
	"errors"
	"fmt"
)

// CubeState is the state of one elemental cube.
type CubeState int

// Cube states.
const (
	Free CubeState = iota
	Busy
	Failed
)

// Pod tracks cube occupancy. The physical layout is a 4×4×4 grid of cubes
// (the full pod), which only matters to the contiguous policy.
type Pod struct {
	Grid  [3]int // cubes per physical dimension
	state []CubeState
	owner []int // job id per cube, -1 when free
}

// NewPod returns an all-free pod with the given cube grid.
func NewPod(grid [3]int) (*Pod, error) {
	n := grid[0] * grid[1] * grid[2]
	if n <= 0 {
		return nil, fmt.Errorf("sched: invalid grid %v", grid)
	}
	p := &Pod{Grid: grid, state: make([]CubeState, n), owner: make([]int, n)}
	for i := range p.owner {
		p.owner[i] = -1
	}
	return p, nil
}

// FullPod returns the production 64-cube pod.
func FullPod() *Pod {
	p, err := NewPod([3]int{4, 4, 4})
	if err != nil {
		panic(err)
	}
	return p
}

// Cubes returns the total cube count.
func (p *Pod) Cubes() int { return len(p.state) }

// FreeCubes returns the number of free cubes.
func (p *Pod) FreeCubes() int {
	n := 0
	for _, s := range p.state {
		if s == Free {
			n++
		}
	}
	return n
}

// BusyCubes returns the number of allocated cubes.
func (p *Pod) BusyCubes() int {
	n := 0
	for _, s := range p.state {
		if s == Busy {
			n++
		}
	}
	return n
}

// index maps a grid coordinate to a cube id.
func (p *Pod) index(x, y, z int) int {
	return (x*p.Grid[1]+y)*p.Grid[2] + z
}

// Errors returned by pod operations.
var (
	ErrNotPlaced = errors.New("sched: job does not fit")
	ErrBadCube   = errors.New("sched: invalid cube")
	ErrNotOwner  = errors.New("sched: cube not owned by job")
)

// allocate marks the cubes busy for job id.
func (p *Pod) allocate(cubes []int, job int) error {
	for _, c := range cubes {
		if c < 0 || c >= len(p.state) {
			return ErrBadCube
		}
		if p.state[c] != Free {
			return fmt.Errorf("%w: cube %d not free", ErrBadCube, c)
		}
	}
	for _, c := range cubes {
		p.state[c] = Busy
		p.owner[c] = job
	}
	return nil
}

// Occupy marks the given cubes busy for a job — state import uses it to
// rebuild a mirror from a snapshot. Every cube must be free.
func (p *Pod) Occupy(job int, cubes []int) error { return p.allocate(cubes, job) }

// Release frees every cube owned by job and returns them.
func (p *Pod) Release(job int) []int {
	var freed []int
	for c := range p.state {
		if p.owner[c] == job {
			p.state[c] = Free
			p.owner[c] = -1
			freed = append(freed, c)
		}
	}
	return freed
}

// State returns the state of one cube; out-of-range cubes report Failed so
// callers can treat unknown ids as unusable.
func (p *Pod) State(cube int) CubeState {
	if cube < 0 || cube >= len(p.state) {
		return Failed
	}
	return p.state[cube]
}

// JobCubes returns the cubes owned by a job, ascending.
func (p *Pod) JobCubes(job int) []int {
	var cubes []int
	for c := range p.state {
		if p.owner[c] == job {
			cubes = append(cubes, c)
		}
	}
	return cubes
}

// clone copies the pod's occupancy state (for scratch planning).
func (p *Pod) clone() *Pod {
	return &Pod{
		Grid:  p.Grid,
		state: append([]CubeState(nil), p.state...),
		owner: append([]int(nil), p.owner...),
	}
}

// Fail marks a cube failed. If it was busy, the owning job id is returned.
// Failing an already-failed cube is an idempotent no-op — there is no owner
// to evict and the repair clock must not restart — reported as
// (0, false, nil).
func (p *Pod) Fail(cube int) (job int, wasBusy bool, err error) {
	if cube < 0 || cube >= len(p.state) {
		return 0, false, ErrBadCube
	}
	if p.state[cube] == Failed {
		return 0, false, nil
	}
	job = p.owner[cube]
	wasBusy = p.state[cube] == Busy
	p.state[cube] = Failed
	p.owner[cube] = -1
	return job, wasBusy, nil
}

// Repair returns a failed cube to service.
func (p *Pod) Repair(cube int) error {
	if cube < 0 || cube >= len(p.state) {
		return ErrBadCube
	}
	if p.state[cube] != Failed {
		return fmt.Errorf("%w: cube %d not failed", ErrBadCube, cube)
	}
	p.state[cube] = Free
	return nil
}

// SwapCube replaces a failed cube of a job with a free one (only possible
// on the reconfigurable fabric). It returns the replacement cube.
func (p *Pod) SwapCube(job int) (int, error) {
	for c := range p.state {
		if p.state[c] == Free {
			p.state[c] = Busy
			p.owner[c] = job
			return c, nil
		}
	}
	return 0, ErrNotPlaced
}

// Placer decides which cubes a job occupies.
type Placer interface {
	// Place returns the cube ids for a job needing the given cube count,
	// or ErrNotPlaced.
	Place(p *Pod, job, cubes int) ([]int, error)
	// Name identifies the policy.
	Name() string
}

// Reconfigurable places a job on any free cubes: the lightwave fabric
// connects them regardless of physical position.
type Reconfigurable struct{}

// Name implements Placer.
func (Reconfigurable) Name() string { return "reconfigurable" }

// Place implements Placer.
func (Reconfigurable) Place(p *Pod, job, cubes int) ([]int, error) {
	if cubes <= 0 {
		return nil, ErrNotPlaced
	}
	var picked []int
	for c := range p.state {
		if p.state[c] == Free {
			picked = append(picked, c)
			if len(picked) == cubes {
				if err := p.allocate(picked, job); err != nil {
					return nil, err
				}
				return picked, nil
			}
		}
	}
	return nil, fmt.Errorf("%w: need %d cubes, %d free", ErrNotPlaced, cubes, len(picked))
}

// Contiguous places a job only on an axis-aligned box of free cubes — the
// TPU v3-style constraint ("scheduling a 256-node slice required finding
// 256 contiguous nodes that were idle and functional").
type Contiguous struct{}

// Name implements Placer.
func (Contiguous) Name() string { return "contiguous" }

// Place implements Placer.
func (c Contiguous) Place(p *Pod, job, cubes int) ([]int, error) {
	if cubes <= 0 {
		return nil, ErrNotPlaced
	}
	for _, box := range boxesFor(cubes, p.Grid) {
		for x := 0; x+box[0] <= p.Grid[0]; x++ {
			for y := 0; y+box[1] <= p.Grid[1]; y++ {
				for z := 0; z+box[2] <= p.Grid[2]; z++ {
					ids := p.boxCubes(x, y, z, box)
					if ids != nil {
						if err := p.allocate(ids, job); err != nil {
							return nil, err
						}
						return ids, nil
					}
				}
			}
		}
	}
	return nil, fmt.Errorf("%w: no free %d-cube box", ErrNotPlaced, cubes)
}

// boxCubes returns the cube ids of the box if all free, else nil.
func (p *Pod) boxCubes(x, y, z int, box [3]int) []int {
	ids := make([]int, 0, box[0]*box[1]*box[2])
	for dx := 0; dx < box[0]; dx++ {
		for dy := 0; dy < box[1]; dy++ {
			for dz := 0; dz < box[2]; dz++ {
				id := p.index(x+dx, y+dy, z+dz)
				if p.state[id] != Free {
					return nil
				}
				ids = append(ids, id)
			}
		}
	}
	return ids
}

// boxesFor enumerates the axis-aligned box dimensions with the given
// volume that fit in the grid, most-compact first.
func boxesFor(cubes int, grid [3]int) [][3]int {
	var out [][3]int
	for a := 1; a <= cubes && a <= grid[0]; a++ {
		if cubes%a != 0 {
			continue
		}
		rest := cubes / a
		for b := 1; b <= rest && b <= grid[1]; b++ {
			if rest%b != 0 {
				continue
			}
			c := rest / b
			if c <= grid[2] {
				out = append(out, [3]int{a, b, c})
			}
		}
	}
	// Order by compactness (surface area): compact boxes leave more
	// usable space behind.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && surface(out[j]) < surface(out[j-1]); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func surface(b [3]int) int {
	return 2 * (b[0]*b[1] + b[1]*b[2] + b[0]*b[2])
}
