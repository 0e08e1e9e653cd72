package sched

import (
	"math/bits"
	"sort"
)

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
// The pass is planned on scratch masks so the pod is only ever committed
// to a consistent single-owner assignment: a job that cannot be re-boxed is
// pinned to its original cubes and planning restarts around the pin, rather
// than force-restoring cubes an earlier-placed job may already hold.
func (p *Pod) Defragment() DefragResult {
	// Snapshot the running jobs as cube masks, largest first.
	type plan struct {
		job           int
		before, after uint64
	}
	var jobs []plan
	for m := p.busy; m != 0; {
		j := plan{job: p.owner[bits.TrailingZeros64(m)]}
		j.before = p.jobMask(j.job)
		jobs = append(jobs, j)
		m &^= j.before
	}
	sort.Slice(jobs, func(i, k int) bool {
		if a, b := bits.OnesCount64(jobs[i].before), bits.OnesCount64(jobs[k].before); a != b {
			return a > b
		}
		return jobs[i].job < jobs[k].job
	})

	// Plan on a scratch free mask. Each failed attempt pins at least one
	// more job, so the loop runs at most len(jobs)+1 times; in the worst
	// case every job is pinned and the plan is the original assignment.
	var res DefragResult
	pinned := uint64(0)
plan:
	for {
		free := p.free | p.busy&^pinned
		for i := range jobs {
			j := &jobs[i]
			if j.before&pinned != 0 {
				continue
			}
			j.after = firstFit(free, p.boxes[bits.OnesCount64(j.before)])
			if j.after == 0 {
				j.after = j.before // pinned where it stands
				pinned |= j.before
				res.Unmovable++
				continue plan
			}
			free &^= j.after
		}
		break
	}

	// Commit: lift every job that moves, then set each down on its new box.
	for _, j := range jobs {
		if j.after != j.before {
			for m := j.before; m != 0; m &= m - 1 {
				p.setFree(bits.TrailingZeros64(m))
			}
		}
	}
	for _, j := range jobs {
		if j.after != j.before {
			res.Jobs++
			res.MigratedCubes += bits.OnesCount64(j.after &^ j.before)
			res.Moves = append(res.Moves, JobMove{Job: j.job, Cubes: p.take(j.after, j.job)})
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
