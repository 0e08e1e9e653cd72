package sched

import "sort"

// Defragmentation (§4.2.4: "the scheduler is able to defragment the pods
// more effectively"). A contiguous-placement pod fragments as jobs come
// and go; compaction migrates running jobs into a corner of the pod so a
// blocked large job can fit. Migration is expensive (checkpoint, move,
// restore), so the scheduler counts migrated cubes. The reconfigurable
// fabric never needs this: any set of free cubes is as good as any other.

// JobMove records one job's relocation in a compaction pass.
type JobMove struct {
	Job int
	// Cubes is the job's new cube set, ascending.
	Cubes []int
}

// DefragResult reports a compaction pass.
type DefragResult struct {
	// MigratedCubes is the number of cube-slots whose job moved.
	MigratedCubes int
	// Jobs is the number of jobs relocated.
	Jobs int
	// Unmovable counts jobs left on their original cubes because no free
	// box could hold them (failed cubes in the way).
	Unmovable int
	// Moves lists each relocated job's new cube set, ascending by job id —
	// online schedulers replay these as slice intent updates.
	Moves []JobMove
}

// Defragment repacks every running job into boxes allocated greedily from
// the origin, largest job first — the classic compaction that a static
// fabric needs and a reconfigurable one does not. It returns the migration
// cost. Failed cubes stay where they are.
//
// The pass is planned on a scratch copy so the pod is only ever committed
// to a consistent single-owner assignment: a job that cannot be re-boxed is
// pinned to its original cubes and planning restarts around the pin, rather
// than force-restoring cubes an earlier-placed job may already hold.
func (p *Pod) Defragment() DefragResult {
	// Snapshot jobs and their sizes.
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

	// Plan on a scratch pod. Each failed attempt pins at least one more
	// job, so the loop runs at most len(jobs)+1 times; in the worst case
	// every job is pinned and the plan is the original assignment.
	pinned := map[int]bool{}
	var scratch *Pod
	placer := Contiguous{}
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
			if _, err := placer.Place(scratch, j, sizes[j]); err != nil {
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

// ContiguousWithDefrag is the contiguous policy plus compaction: when a
// job does not fit, the pod is defragmented once and placement retried.
// Migration cost is accumulated in Migrations.
type ContiguousWithDefrag struct {
	Migrations *int
}

// Name implements Placer.
func (ContiguousWithDefrag) Name() string { return "contiguous+defrag" }

// Place implements Placer.
func (d ContiguousWithDefrag) Place(p *Pod, job, cubes int) ([]int, error) {
	c := Contiguous{}
	ids, err := c.Place(p, job, cubes)
	if err == nil {
		return ids, nil
	}
	if cubes > p.FreeCubes() {
		return nil, err // no amount of compaction helps
	}
	res := p.Defragment()
	if d.Migrations != nil {
		*d.Migrations += res.MigratedCubes
	}
	return c.Place(p, job, cubes)
}
