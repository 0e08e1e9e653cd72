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
	"math/bits"
	"sync"
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
// (the full pod), which only matters to the contiguous policy. A pod holds
// at most 64 cubes, so occupancy is also kept as two bitboards — bit c of
// free (busy) is set exactly when state[c] is Free (Busy) — and placement
// is a mask compare.
type Pod struct {
	Grid       [3]int // cubes per physical dimension
	state      []CubeState
	owner      []int // job id per cube, -1 when free
	free, busy uint64
	boxes      boxTable
}

// NewPod returns an all-free pod with the given cube grid, which may hold
// at most 64 cubes (the paper's pod).
func NewPod(grid [3]int) (*Pod, error) {
	n := grid[0] * grid[1] * grid[2]
	if grid[0] <= 0 || grid[1] <= 0 || grid[2] <= 0 || n > 64 {
		return nil, fmt.Errorf("sched: invalid grid %v", grid)
	}
	p := &Pod{Grid: grid, state: make([]CubeState, n), owner: make([]int, n), boxes: boxTableFor(grid)}
	p.free = ^uint64(0) >> (64 - n)
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

// FullPodWithFree returns the production pod with exactly the listed cubes
// free and every other cube out of service (failed) — a mirror of a live
// fabric's free-cube set to run a Placer over.
func FullPodWithFree(free []int) (*Pod, error) {
	p := FullPod()
	p.free = 0
	for c := range p.state {
		p.state[c] = Failed
	}
	for _, c := range free {
		if c < 0 || c >= len(p.state) {
			return nil, ErrBadCube
		}
		p.setFree(c)
	}
	return p, nil
}

// Cubes returns the total cube count.
func (p *Pod) Cubes() int { return len(p.state) }

// FreeCubes returns the number of free cubes.
func (p *Pod) FreeCubes() int { return bits.OnesCount64(p.free) }

// BusyCubes returns the number of allocated cubes.
func (p *Pod) BusyCubes() int { return bits.OnesCount64(p.busy) }

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

// cubesOf lists the cubes of a mask, ascending (nil for none).
func cubesOf(mask uint64) []int {
	if mask == 0 {
		return nil
	}
	ids := make([]int, 0, bits.OnesCount64(mask))
	for ; mask != 0; mask &= mask - 1 {
		ids = append(ids, bits.TrailingZeros64(mask))
	}
	return ids
}

// take marks the cubes of mask, all free, busy for job and returns their
// ids ascending.
func (p *Pod) take(mask uint64, job int) []int {
	p.free &^= mask
	p.busy |= mask
	ids := cubesOf(mask)
	for _, c := range ids {
		p.state[c], p.owner[c] = Busy, job
	}
	return ids
}

// jobMask returns the cubes owned by a job.
func (p *Pod) jobMask(job int) uint64 {
	var mask uint64
	for m := p.busy; m != 0; m &= m - 1 {
		if c := bits.TrailingZeros64(m); p.owner[c] == job {
			mask |= 1 << c
		}
	}
	return mask
}

// Occupy marks the given cubes busy for a job — state import uses it to
// rebuild a mirror from a snapshot. Every cube must be free, and a cube
// listed twice is not free the second time.
func (p *Pod) Occupy(job int, cubes []int) error {
	var mask uint64
	for _, c := range cubes {
		if c < 0 || c >= len(p.state) {
			return ErrBadCube
		}
		if (p.free&^mask)&(1<<c) == 0 {
			return fmt.Errorf("%w: cube %d not free", ErrBadCube, c)
		}
		mask |= 1 << c
	}
	p.take(mask, job)
	return nil
}

// Release frees every cube owned by job and returns them.
func (p *Pod) Release(job int) []int {
	freed := cubesOf(p.jobMask(job))
	for _, c := range freed {
		p.setFree(c)
	}
	return freed
}

// setFree returns a busy or failed cube to the free set.
func (p *Pod) setFree(c int) {
	p.state[c], p.owner[c] = Free, -1
	p.busy &^= 1 << c
	p.free |= 1 << c
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
func (p *Pod) JobCubes(job int) []int { return cubesOf(p.jobMask(job)) }

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
	p.state[cube], p.owner[cube] = Failed, -1
	p.free &^= 1 << cube
	p.busy &^= 1 << cube
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
	p.setFree(cube)
	return nil
}

// SwapCube replaces a failed cube of a job with a free one (only possible
// on the reconfigurable fabric). It returns the replacement cube.
func (p *Pod) SwapCube(job int) (int, error) {
	if p.free == 0 {
		return 0, ErrNotPlaced
	}
	return p.take(p.free&-p.free, job)[0], nil
}

// Placer decides which cubes a job occupies. The scheduler's queue scan
// skips a size the unchanged pods have just refused, which holds a policy
// (the built-in ones, and any custom one) to two rules: the verdict and the
// cubes chosen are a function of the pod's state and the cube count alone —
// not of the job id, the clock or earlier calls — and a refusal leaves the
// pod as it was or, for a compacting policy, compacted so that the same ask
// is refused again without further change (Defragment is idempotent).
type Placer interface {
	// Place returns the cube ids for a job needing the given cube count,
	// or an error that unwraps to ErrNotPlaced.
	Place(p *Pod, job, cubes int) ([]int, error)
	// Name identifies the policy.
	Name() string
}

// refusal is a Place verdict of "no": need cubes asked for and free of them
// available, or free < 0 when the pod has cubes enough but no free box of
// that volume. It is worded only when someone reads it, and every refusal a
// pod can produce is built at start-up — the scheduler asks far more often
// than it reports, so refusing neither formats nor allocates.
type refusal struct{ need, free int }

var refusals [65][66]refusal // [need][free+1]

func init() {
	for need := range refusals {
		for i := range refusals[need] {
			refusals[need][i] = refusal{need, i - 1}
		}
	}
}

func refuse(need, free int) error {
	if need >= len(refusals) {
		return &refusal{need, free}
	}
	return &refusals[need][free+1]
}

func (e *refusal) Error() string {
	if e.free < 0 {
		return fmt.Sprintf("%v: no free %d-cube box", ErrNotPlaced, e.need)
	}
	return fmt.Sprintf("%v: need %d cubes, %d free", ErrNotPlaced, e.need, e.free)
}

func (e *refusal) Unwrap() error { return ErrNotPlaced }

// Reconfigurable places a job on any free cubes: the lightwave fabric
// connects them regardless of physical position.
type Reconfigurable struct{}

// Name implements Placer.
func (Reconfigurable) Name() string { return "reconfigurable" }

// Place implements Placer: the lowest-numbered free cubes.
func (Reconfigurable) Place(p *Pod, job, cubes int) ([]int, error) {
	if cubes <= 0 {
		return nil, ErrNotPlaced
	}
	if free := p.FreeCubes(); cubes > free {
		return nil, refuse(cubes, free)
	}
	rest := p.free
	for i := 0; i < cubes; i++ {
		rest &= rest - 1
	}
	return p.take(p.free&^rest, job), nil
}

// Contiguous places a job only on an axis-aligned box of free cubes — the
// TPU v3-style constraint ("scheduling a 256-node slice required finding
// 256 contiguous nodes that were idle and functional").
type Contiguous struct{}

// Name implements Placer.
func (Contiguous) Name() string { return "contiguous" }

// Place implements Placer: the first free box in the pod's box table.
func (c Contiguous) Place(p *Pod, job, cubes int) ([]int, error) {
	if cubes <= 0 {
		return nil, ErrNotPlaced
	}
	if cubes < len(p.boxes) {
		if box := firstFit(p.free, p.boxes[cubes]); box != 0 {
			return p.take(box, job), nil
		}
	}
	return nil, refuse(cubes, -1)
}

// firstFit returns the first box whose cubes are all in free, or 0.
//
//lwlint:hotpath
func firstFit(free uint64, boxes []uint64) uint64 {
	for _, box := range boxes {
		if free&box == box {
			return box
		}
	}
	return 0
}

// boxTable is one grid's contiguous search space: indexed by job size, the
// cube mask of every axis-aligned box of that volume in search order —
// boxesFor's most-compact-first, then origin x, y, z ascending. Tables are
// built once per grid and never written afterwards.
type boxTable [][]uint64

var boxTables sync.Map // grid [3]int → boxTable

func boxTableFor(grid [3]int) boxTable {
	if t, ok := boxTables.Load(grid); ok {
		return t.(boxTable)
	}
	p := Pod{Grid: grid}
	t := make(boxTable, grid[0]*grid[1]*grid[2]+1)
	for cubes := 1; cubes < len(t); cubes++ {
		for _, box := range boxesFor(cubes, grid) {
			// The box at the origin; cube ids are linear in the coordinates,
			// so every other origin is a shift of it.
			var base uint64
			for dx := 0; dx < box[0]; dx++ {
				for dy := 0; dy < box[1]; dy++ {
					base |= (1<<box[2] - 1) << p.index(dx, dy, 0)
				}
			}
			for x := 0; x+box[0] <= grid[0]; x++ {
				for y := 0; y+box[1] <= grid[1]; y++ {
					for z := 0; z+box[2] <= grid[2]; z++ {
						t[cubes] = append(t[cubes], base<<p.index(x, y, z))
					}
				}
			}
		}
	}
	boxTables.Store(grid, t)
	return t
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
