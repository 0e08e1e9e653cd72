package sched

import (
	"errors"
	"reflect"
	"sort"
	"testing"
)

// The placement bodies as they stood before occupancy became a bitboard
// (per-cube scans, a fresh id slice per candidate box, map-planned
// compaction), kept so the mask versions are held to them op for op:
// FuzzPodPlacement drives a Pod and a refPod with the same operations and
// compares every cube after each one.

type refPod struct {
	grid  [3]int
	state []CubeState
	owner []int
}

func newRefPod(grid [3]int) *refPod {
	n := grid[0] * grid[1] * grid[2]
	p := &refPod{grid: grid, state: make([]CubeState, n), owner: make([]int, n)}
	for i := range p.owner {
		p.owner[i] = -1
	}
	return p
}

func (p *refPod) freeCubes() int {
	n := 0
	for _, s := range p.state {
		if s == Free {
			n++
		}
	}
	return n
}

func (p *refPod) allocate(cubes []int, job int) error {
	for _, c := range cubes {
		if c < 0 || c >= len(p.state) || p.state[c] != Free {
			return ErrBadCube
		}
	}
	for _, c := range cubes {
		p.state[c] = Busy
		p.owner[c] = job
	}
	return nil
}

func (p *refPod) release(job int) []int {
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

func (p *refPod) clone() *refPod {
	return &refPod{
		grid:  p.grid,
		state: append([]CubeState(nil), p.state...),
		owner: append([]int(nil), p.owner...),
	}
}

func (p *refPod) fail(cube int) (job int, wasBusy bool) {
	if p.state[cube] == Failed {
		return 0, false
	}
	job = p.owner[cube]
	wasBusy = p.state[cube] == Busy
	p.state[cube] = Failed
	p.owner[cube] = -1
	return job, wasBusy
}

func (p *refPod) repair(cube int) error {
	if p.state[cube] != Failed {
		return ErrBadCube
	}
	p.state[cube] = Free
	return nil
}

func (p *refPod) swapCube(job int) (int, error) {
	for c := range p.state {
		if p.state[c] == Free {
			p.state[c] = Busy
			p.owner[c] = job
			return c, nil
		}
	}
	return 0, ErrNotPlaced
}

func (p *refPod) placeReconfigurable(job, cubes int) ([]int, error) {
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
	return nil, ErrNotPlaced
}

func (p *refPod) placeContiguous(job, cubes int) ([]int, error) {
	if cubes <= 0 {
		return nil, ErrNotPlaced
	}
	for _, box := range boxesFor(cubes, p.grid) {
		for x := 0; x+box[0] <= p.grid[0]; x++ {
			for y := 0; y+box[1] <= p.grid[1]; y++ {
				for z := 0; z+box[2] <= p.grid[2]; z++ {
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
	return nil, ErrNotPlaced
}

func (p *refPod) boxCubes(x, y, z int, box [3]int) []int {
	ids := make([]int, 0, box[0]*box[1]*box[2])
	for dx := 0; dx < box[0]; dx++ {
		for dy := 0; dy < box[1]; dy++ {
			for dz := 0; dz < box[2]; dz++ {
				id := ((x+dx)*p.grid[1]+y+dy)*p.grid[2] + z + dz
				if p.state[id] != Free {
					return nil
				}
				ids = append(ids, id)
			}
		}
	}
	return ids
}

func (p *refPod) defragment() DefragResult {
	sizes := map[int]int{}
	before := map[int]map[int]bool{}
	for c := range p.state {
		if p.state[c] == Busy {
			j := p.owner[c]
			sizes[j]++
			if before[j] == nil {
				before[j] = map[int]bool{}
			}
			before[j][c] = true
		}
	}
	jobs := make([]int, 0, len(sizes))
	for j := range sizes {
		jobs = append(jobs, j)
	}
	sort.Slice(jobs, func(i, k int) bool {
		if sizes[jobs[i]] != sizes[jobs[k]] {
			return sizes[jobs[i]] > sizes[jobs[k]]
		}
		return jobs[i] < jobs[k]
	})

	pinned := map[int]bool{}
	var scratch *refPod
plan:
	for {
		scratch = p.clone()
		for c := range scratch.state {
			if scratch.state[c] == Busy && !pinned[scratch.owner[c]] {
				scratch.state[c] = Free
				scratch.owner[c] = -1
			}
		}
		for _, j := range jobs {
			if pinned[j] {
				continue
			}
			if _, err := scratch.placeContiguous(j, sizes[j]); err != nil {
				pinned[j] = true
				continue plan
			}
		}
		break
	}
	copy(p.state, scratch.state)
	copy(p.owner, scratch.owner)

	after := map[int][]int{}
	for c := range p.state {
		if p.state[c] == Busy {
			after[p.owner[c]] = append(after[p.owner[c]], c)
		}
	}
	res := DefragResult{Unmovable: len(pinned)}
	for _, j := range jobs {
		if pinned[j] {
			continue
		}
		moved := 0
		for _, c := range after[j] {
			if !before[j][c] {
				moved++
			}
		}
		if moved > 0 {
			res.Jobs++
			res.MigratedCubes += moved
			res.Moves = append(res.Moves, JobMove{Job: j, Cubes: after[j]})
		}
	}
	sort.Slice(res.Moves, func(i, k int) bool { return res.Moves[i].Job < res.Moves[k].Job })
	return res
}

// comparePods fails unless the pod and the reference agree on every cube
// and the pod's bitboards match its per-cube state.
func comparePods(t *testing.T, op string, p *Pod, ref *refPod) {
	t.Helper()
	for c := range ref.state {
		if p.state[c] != ref.state[c] || p.owner[c] != ref.owner[c] {
			t.Fatalf("after %s: cube %d is (%v, job %d), reference (%v, job %d)",
				op, c, p.state[c], p.owner[c], ref.state[c], ref.owner[c])
		}
		if free, busy := p.free>>c&1 == 1, p.busy>>c&1 == 1; free != (p.state[c] == Free) || busy != (p.state[c] == Busy) {
			t.Fatalf("after %s: cube %d is %v but free bit %v, busy bit %v", op, c, p.state[c], free, busy)
		}
	}
	if p.free>>len(ref.state) != 0 || p.busy>>len(ref.state) != 0 {
		t.Fatalf("after %s: bits set beyond cube %d: free %#x busy %#x", op, len(ref.state)-1, p.free, p.busy)
	}
	if p.FreeCubes() != ref.freeCubes() {
		t.Fatalf("after %s: FreeCubes %d, reference %d", op, p.FreeCubes(), ref.freeCubes())
	}
}

// FuzzPodPlacement decodes bytes into a grid of at most 64 cubes and a
// sequence of place / release / fail / repair / swap / defragment
// operations, and applies each to a Pod and to the reference.
func FuzzPodPlacement(f *testing.F) {
	f.Add([]byte{3, 3, 3, 0, 8, 1, 4, 2, 0, 3, 5, 5, 0, 6, 0, 1, 16})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		// Any grid of at most 64 cubes is reachable.
		grid := [3]int{int(data[0])%64 + 1, 1, 1}
		grid[1] = int(data[1])%(64/grid[0]) + 1
		grid[2] = int(data[2])%(64/(grid[0]*grid[1])) + 1
		p, err := NewPod(grid)
		if err != nil {
			t.Fatal(err)
		}
		ref := newRefPod(grid)
		n := p.Cubes()
		job := 0
		ops := data[3:]
		for i := 0; i+1 < len(ops); i += 2 {
			arg := int(ops[i+1])
			var op string
			switch ops[i] % 7 {
			case 0, 1:
				// Place (the size may be 0 or beyond the pod).
				size := arg % (n + 2)
				job++
				var got, want []int
				var gerr, werr error
				if ops[i]%7 == 0 {
					op = "Reconfigurable.Place"
					got, gerr = Reconfigurable{}.Place(p, job, size)
					want, werr = ref.placeReconfigurable(job, size)
				} else {
					op = "Contiguous.Place"
					got, gerr = Contiguous{}.Place(p, job, size)
					want, werr = ref.placeContiguous(job, size)
				}
				if (gerr == nil) != (werr == nil) || !reflect.DeepEqual(got, want) {
					t.Fatalf("%s(%d) = (%v, %v), reference (%v, %v)", op, size, got, gerr, want, werr)
				}
				if gerr != nil && !errors.Is(gerr, ErrNotPlaced) {
					t.Fatalf("%s(%d) refused with %v, which is not ErrNotPlaced", op, size, gerr)
				}
			case 2:
				op = "Release"
				j := arg%(job+1) + 1
				if got, want := p.Release(j), ref.release(j); !reflect.DeepEqual(got, want) {
					t.Fatalf("Release(%d) = %v, reference %v", j, got, want)
				}
			case 3:
				op = "Fail"
				gj, gb, err := p.Fail(arg % n)
				if err != nil {
					t.Fatal(err)
				}
				if wj, wb := ref.fail(arg % n); gj != wj || gb != wb {
					t.Fatalf("Fail(%d) = (%d, %v), reference (%d, %v)", arg%n, gj, gb, wj, wb)
				}
			case 4:
				op = "Repair"
				if gerr, werr := p.Repair(arg%n), ref.repair(arg%n); (gerr == nil) != (werr == nil) {
					t.Fatalf("Repair(%d) = %v, reference %v", arg%n, gerr, werr)
				}
			case 5:
				op = "SwapCube"
				j := arg%(job+1) + 1
				gc, gerr := p.SwapCube(j)
				wc, werr := ref.swapCube(j)
				if gc != wc || (gerr == nil) != (werr == nil) {
					t.Fatalf("SwapCube(%d) = (%d, %v), reference (%d, %v)", j, gc, gerr, wc, werr)
				}
			case 6:
				op = "Defragment"
				if got, want := p.Defragment(), ref.defragment(); !reflect.DeepEqual(got, want) {
					t.Fatalf("Defragment = %+v, reference %+v", got, want)
				}
			}
			comparePods(t, op, p, ref)
		}
	})
}
