package sched

import (
	"container/heap"
	"fmt"
	"sort"

	"lightwave/internal/topo"
)

// State is a full export of a Scheduler, precise enough that ImportState
// followed by replaying journal entries with LSN > WALLSN reproduces the
// live scheduler exactly — including counters and the utilization/wait
// integrals, so sched-status output is identical after a restart.
type State struct {
	WALLSN uint64 `json:"walLSN,omitempty"`

	Now         float64 `json:"now"`
	LastAccount float64 `json:"lastAccount"`
	NextID      int     `json:"nextID"`

	Submitted     int `json:"submitted"`
	Started       int `json:"started"`
	Completed     int `json:"completed"`
	Preempted     int `json:"preempted"`
	Swaps         int `json:"swaps"`
	MigratedCubes int `json:"migratedCubes"`
	Failures      int `json:"failures"`
	Repairs       int `json:"repairs"`

	BusyIntegral  float64 `json:"busyIntegral"`
	AvailIntegral float64 `json:"availIntegral"`
	WaitSum       float64 `json:"waitSum"`
	WaitCount     int     `json:"waitCount"`

	Queue   []QueuedJobState  `json:"queue,omitempty"`
	Running []RunningJobState `json:"running,omitempty"`
	Pods    []PodState        `json:"pods"`
}

// PodState exports one pod mirror: which cubes are failed and whether the
// pod is down. Busy cubes are implied by Running.
type PodState struct {
	Name   string `json:"name"`
	Down   bool   `json:"down,omitempty"`
	Failed []int  `json:"failed,omitempty"`
}

// QueuedJobState exports one waiting job.
type QueuedJobState struct {
	ID      int     `json:"id"`
	Spec    JobSpec `json:"spec"`
	Arrived float64 `json:"arrived"`
}

// RunningJobState exports one placed job.
type RunningJobState struct {
	ID    int        `json:"id"`
	Pod   string     `json:"pod"`
	Spec  JobSpec    `json:"spec"`
	Shape topo.Shape `json:"shape"`
	Cubes []int      `json:"cubes"`
	Start float64    `json:"start"`
	End   float64    `json:"end"`
}

// ExportState snapshots the scheduler for a WAL checkpoint.
func (s *Scheduler) ExportState() State {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := State{
		WALLSN:        s.walLSN,
		Now:           s.now,
		LastAccount:   s.lastAccount,
		NextID:        s.nextID,
		Submitted:     s.submitted,
		Started:       s.started,
		Completed:     s.completed,
		Preempted:     s.preempted,
		Swaps:         s.swaps,
		MigratedCubes: s.migrated,
		Failures:      s.failures,
		Repairs:       s.repairs,
		BusyIntegral:  s.busyIntegral,
		AvailIntegral: s.availIntegral,
		WaitSum:       s.waitSum,
		WaitCount:     s.waitCount,
	}
	for _, j := range s.queue {
		st.Queue = append(st.Queue, QueuedJobState{ID: j.id, Spec: j.spec, Arrived: j.arrived})
	}
	ids := make([]int, 0, len(s.running))
	for id := range s.running {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		rj := s.running[id]
		st.Running = append(st.Running, RunningJobState{
			ID:    rj.id,
			Pod:   rj.pod.name,
			Spec:  rj.spec,
			Shape: rj.shape,
			Cubes: append([]int(nil), rj.cubes...),
			Start: rj.start,
			End:   rj.end,
		})
	}
	for _, sp := range s.pods {
		ps := PodState{Name: sp.name, Down: sp.down}
		for c := 0; c < sp.mirror.Cubes(); c++ {
			if sp.mirror.State(c) == Failed {
				ps.Failed = append(ps.Failed, c)
			}
		}
		st.Pods = append(st.Pods, ps)
	}
	return st
}

// ImportState loads an export into a freshly constructed scheduler (same
// pods and config as the exporter). It errors on a scheduler that has
// already processed work or an export naming unknown pods.
func (s *Scheduler) ImportState(st State) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.submitted != 0 || len(s.running) != 0 || len(s.queue) != 0 {
		return fmt.Errorf("sched: ImportState on a non-fresh scheduler")
	}
	for _, ps := range st.Pods {
		sp := s.byName[ps.Name]
		if sp == nil {
			return fmt.Errorf("%w: %q in state export", ErrUnknownPod, ps.Name)
		}
		sp.down = ps.Down
		want := make(map[int]bool, len(ps.Failed))
		for _, c := range ps.Failed {
			want[c] = true
		}
		for c := 0; c < sp.mirror.Cubes(); c++ {
			cur := sp.mirror.State(c)
			switch {
			case want[c] && cur != Failed:
				if _, _, err := sp.mirror.Fail(c); err != nil {
					return err
				}
			case !want[c] && cur == Failed:
				if err := sp.mirror.Repair(c); err != nil {
					return err
				}
			}
		}
	}
	for _, rs := range st.Running {
		sp := s.byName[rs.Pod]
		if sp == nil {
			return fmt.Errorf("%w: %q owns job %d", ErrUnknownPod, rs.Pod, rs.ID)
		}
		if err := sp.mirror.Occupy(rs.ID, rs.Cubes); err != nil {
			return fmt.Errorf("sched: restore job %d: %w", rs.ID, err)
		}
		rj := &runningJob{
			id:    rs.ID,
			pod:   sp,
			spec:  rs.Spec,
			shape: rs.Shape,
			cubes: append([]int(nil), rs.Cubes...),
			start: rs.Start,
			end:   rs.End,
		}
		s.running[rj.id] = rj
		heap.Push(&s.done, rj)
	}
	for _, qs := range st.Queue {
		s.queue = append(s.queue, &queuedJob{id: qs.ID, spec: qs.Spec, arrived: qs.Arrived})
	}
	s.rejected = true
	s.walLSN = st.WALLSN
	s.now = st.Now
	s.lastAccount = st.LastAccount
	s.nextID = st.NextID
	s.submitted = st.Submitted
	s.started = st.Started
	s.completed = st.Completed
	s.preempted = st.Preempted
	s.swaps = st.Swaps
	s.migrated = st.MigratedCubes
	s.failures = st.Failures
	s.repairs = st.Repairs
	s.busyIntegral = st.BusyIntegral
	s.availIntegral = st.AvailIntegral
	s.waitSum = st.WaitSum
	s.waitCount = st.WaitCount
	s.cSubmitted.Add(int64(st.Submitted))
	s.cStarted.Add(int64(st.Started))
	s.cCompleted.Add(int64(st.Completed))
	s.cPreempted.Add(int64(st.Preempted))
	s.cSwaps.Add(int64(st.Swaps))
	s.cMigrated.Add(int64(st.MigratedCubes))
	s.cFailures.Add(int64(st.Failures))
	s.cRepairs.Add(int64(st.Repairs))
	s.updateGaugesLocked()
	return nil
}
