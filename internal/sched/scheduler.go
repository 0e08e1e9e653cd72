package sched

import (
	"container/heap"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"lightwave/internal/telemetry"
	"lightwave/internal/topo"
)

// The §4.2.4 scheduler, and the only implementation of its policy: FIFO
// with a bounded backfill window, preemption, completion order and
// busy-time accounting all live here. The Scheduler keeps a cube-occupancy
// mirror per pod, makes every placement decision on the mirror, and pushes
// the resulting slice intents to the cluster through a ClusterOps seam — a
// fleet.Manager under lwfleetd and superpod.Evaluate, nothing at all under
// the offline Simulate, which is this scheduler behind a seeded event
// stream. Virtual time is advanced explicitly by the caller (AdvanceTo), so
// a daemon ticks it against the wall clock while an evaluator replays a
// deterministic stream; the scheduler itself never reads a clock for
// anything but latency metrics.

// ClusterOps is the seam between scheduling decisions and the cluster
// control plane. The production implementation translates calls into
// fleet.Manager slice intents; a nil ClusterOps runs the scheduler
// mirror-only (pure simulation).
type ClusterOps interface {
	// EnsureJobSlice declares that a job's slice must exist on the pod
	// with the given chip-level shape and cube set. Called again with a
	// changed cube set (swap, defrag migration), it reshapes the slice.
	EnsureJobSlice(pod, slice string, shape topo.Shape, cubes []int) error
	// RemoveJobSlice declares that a job's slice must no longer exist.
	RemoveJobSlice(pod, slice string) error
}

// SchedulerConfig configures an online scheduler.
type SchedulerConfig struct {
	// Pods names the pods under management (order does not matter; the
	// scheduler sorts them so placement scans are deterministic).
	Pods []string
	// InstalledCubes is the usable cube count per pod (default 64; fewer
	// marks the remainder permanently failed in the mirror).
	InstalledCubes int
	// Placer is the placement policy (default Reconfigurable).
	// ContiguousWithDefrag is normalized to Contiguous plus
	// compaction-on-blocked-placement, whose migrations replay as slice
	// updates through Ops.
	Placer Placer
	// BackfillWindow is how many queued jobs may jump a blocked head job
	// (0 = default 6).
	BackfillWindow int
	// Ops receives slice intents; nil runs mirror-only.
	Ops ClusterOps
}

// JobSpec describes one submitted job.
type JobSpec struct {
	Cubes           int
	DurationSeconds float64
}

// SchedulerStats is a point-in-time snapshot of the scheduler.
type SchedulerStats struct {
	Now           float64
	Submitted     int
	Started       int
	Completed     int
	Preempted     int
	Swaps         int
	MigratedCubes int
	Failures      int
	Repairs       int
	QueueDepth    int
	RunningJobs   int
	// Utilization is busy cube-time over available (healthy, pod-up)
	// cube-time since StartMeasurement (or since construction).
	Utilization float64
	// MeanWaitSeconds is the mean queueing delay of jobs started since
	// StartMeasurement.
	MeanWaitSeconds float64
}

// Scheduler errors.
var (
	ErrUnknownPod = errors.New("sched: unknown pod")
	ErrTimeWarp   = errors.New("sched: AdvanceTo before current time")
	ErrNoBox      = errors.New("sched: contiguous policy has no box of the job's size")
)

type schedPod struct {
	name   string
	mirror *Pod
	down   bool
}

type queuedJob struct {
	id      int
	spec    JobSpec
	arrived float64
}

type runningJob struct {
	id      int
	pod     *schedPod
	spec    JobSpec
	shape   topo.Shape
	cubes   []int
	start   float64
	end     float64
	heapIdx int
}

type completionHeap []*runningJob

func (h completionHeap) Len() int { return len(h) }
func (h completionHeap) Less(i, j int) bool {
	if h[i].end != h[j].end {
		return h[i].end < h[j].end
	}
	return h[i].id < h[j].id
}
func (h completionHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].heapIdx = i
	h[j].heapIdx = j
}
func (h *completionHeap) Push(x any) {
	rj := x.(*runningJob)
	rj.heapIdx = len(*h)
	*h = append(*h, rj)
}
func (h *completionHeap) Pop() any {
	old := *h
	n := len(old)
	rj := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return rj
}

// Scheduler is the online §4.2.4 slice scheduler. All methods are safe for
// concurrent use; virtual time only moves through AdvanceTo.
type Scheduler struct {
	mu       sync.Mutex
	cfg      SchedulerConfig
	placer   Placer
	defrag   bool
	backfill int
	maxJob   int // largest placeable job: one pod's installed cubes

	pods   []*schedPod // sorted by name
	byName map[string]*schedPod

	journal Journal
	walLSN  uint64 // highest LSN journaled; exports record it

	queue   []*queuedJob
	running map[int]*runningJob
	done    completionHeap
	now     float64
	nextID  int

	// rejected is set while a queued job may be waiting on the cluster
	// rather than on cubes: a scan ended early on an Ops error, or the
	// state was imported (the flag is not exported). Only then does a
	// tick with no completions need to scan the queue again.
	rejected bool

	submitted, started, completed, preempted int
	swaps, migrated, failures, repairs       int
	busyIntegral, availIntegral              float64
	lastAccount                              float64
	waitSum                                  float64
	waitCount                                int

	cSubmitted, cStarted, cCompleted, cPreempted *telemetry.Counter
	cSwaps, cMigrated, cFailures, cRepairs       *telemetry.Counter
	gQueue, gRunning, gUtil                      *telemetry.Gauge
	dWait, dPlace                                *telemetry.Distribution
}

// NewScheduler builds a scheduler over the named pods.
func NewScheduler(cfg SchedulerConfig) (*Scheduler, error) {
	return newScheduler(cfg, nil)
}

// newScheduler is NewScheduler with an optional mirror to adopt: Simulate
// passes the caller's pod, which becomes the single named pod's mirror as
// it stands (its grid and any failed cubes kept, InstalledCubes ignored).
func newScheduler(cfg SchedulerConfig, adopt *Pod) (*Scheduler, error) {
	if len(cfg.Pods) == 0 {
		return nil, errors.New("sched: no pods")
	}
	installed := cfg.InstalledCubes
	if installed <= 0 || installed > 64 {
		installed = 64
	}
	if adopt != nil {
		installed = adopt.Cubes()
	}
	placer := cfg.Placer
	if placer == nil {
		placer = Reconfigurable{}
	}
	_, defrag := placer.(ContiguousWithDefrag)
	if defrag {
		placer = Contiguous{}
	}
	backfill := cfg.BackfillWindow
	if backfill <= 0 {
		backfill = 6
	}
	s := &Scheduler{
		cfg:      cfg,
		placer:   placer,
		defrag:   defrag,
		backfill: backfill,
		maxJob:   installed,
		byName:   make(map[string]*schedPod, len(cfg.Pods)),
		running:  make(map[int]*runningJob),
	}
	names := append([]string(nil), cfg.Pods...)
	sort.Strings(names)
	for _, name := range names {
		if _, dup := s.byName[name]; dup {
			return nil, fmt.Errorf("sched: duplicate pod %q", name)
		}
		sp := &schedPod{name: name, mirror: adopt}
		if adopt == nil {
			sp.mirror = FullPod()
			for c := installed; c < sp.mirror.Cubes(); c++ {
				if _, _, err := sp.mirror.Fail(c); err != nil {
					return nil, err
				}
			}
		}
		s.pods = append(s.pods, sp)
		s.byName[name] = sp
	}

	reg := Registry()
	s.cSubmitted = reg.Counter("sched_submitted_total")
	s.cStarted = reg.Counter("sched_started_total")
	s.cCompleted = reg.Counter("sched_completed_total")
	s.cPreempted = reg.Counter("sched_preempted_total")
	s.cSwaps = reg.Counter("sched_swaps_total")
	s.cMigrated = reg.Counter("sched_migrated_cubes_total")
	s.cFailures = reg.Counter("sched_cube_failures_total")
	s.cRepairs = reg.Counter("sched_cube_repairs_total")
	s.gQueue = reg.Gauge("sched_queue_depth")
	s.gRunning = reg.Gauge("sched_running_jobs")
	s.gUtil = reg.Gauge("sched_utilization")
	s.dWait = reg.Distribution("sched_wait_seconds", 1, 10, 60, 600, 3600, 36000)
	s.dPlace = reg.Distribution("sched_place_seconds", 1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2)
	return s, nil
}

// Policy names the effective placement policy.
func (s *Scheduler) Policy() string {
	if s.defrag {
		return s.placer.Name() + "+defrag"
	}
	return s.placer.Name()
}

// Pods returns the managed pod names, sorted.
func (s *Scheduler) Pods() []string {
	names := make([]string, len(s.pods))
	for i, sp := range s.pods {
		names[i] = sp.name
	}
	return names
}

// Now returns the current virtual time.
func (s *Scheduler) Now() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.now
}

// sliceName is the fleet slice name carrying a job.
func sliceName(job int) string { return fmt.Sprintf("job-%d", job) }

// accrueTo integrates busy and available cube-time up to t and moves the
// virtual clock there.
func (s *Scheduler) accrueTo(t float64) {
	dt := t - s.lastAccount
	if dt > 0 {
		busy, avail := 0, 0
		for _, sp := range s.pods {
			if sp.down {
				continue
			}
			b := sp.mirror.BusyCubes()
			busy += b
			avail += b + sp.mirror.FreeCubes()
		}
		s.busyIntegral += float64(busy) * dt
		s.availIntegral += float64(avail) * dt
		s.lastAccount = t
	}
	if t > s.now {
		s.now = t
	}
}

func (s *Scheduler) updateGaugesLocked() {
	s.gQueue.Set(float64(len(s.queue)))
	s.gRunning.Set(float64(len(s.running)))
	if s.availIntegral > 0 {
		s.gUtil.Set(s.busyIntegral / s.availIntegral)
	}
}

// Submit enqueues a job at the current virtual time and immediately tries
// to place it (and anything else in the backfill window). It reports the
// job id and whether the job started right away. An error means the
// cluster rejected a slice intent; the mirror is rolled back for the
// failed placement but earlier placements in the same pass stand.
func (s *Scheduler) Submit(spec JobSpec) (int, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if spec.Cubes <= 0 || spec.DurationSeconds <= 0 {
		return 0, false, errors.New("sched: non-positive job spec")
	}
	if spec.Cubes > s.maxJob {
		// An unplaceable job would pin the head of the FIFO queue forever
		// once the backfill window fills behind it; reject it up front.
		return 0, false, fmt.Errorf("sched: job wants %d cubes, pods install %d", spec.Cubes, s.maxJob)
	}
	if _, contig := s.placer.(Contiguous); contig && len(s.pods[0].mirror.boxes[spec.Cubes]) == 0 {
		// Just as unplaceable: no axis-aligned box in the grid has this volume.
		return 0, false, fmt.Errorf("%w: %d cubes in a %v pod", ErrNoBox, spec.Cubes, s.pods[0].mirror.Grid)
	}
	if err := s.journalLocked(JournalEntry{Op: OpSubmit, Spec: &spec}); err != nil {
		return 0, false, err
	}
	id := s.nextID
	s.nextID++
	s.submitted++
	s.cSubmitted.Inc()
	s.queue = append(s.queue, &queuedJob{id: id, spec: spec, arrived: s.now})
	err := s.tryPlaceLocked()
	_, placed := s.running[id]
	s.updateGaugesLocked()
	return id, placed, err
}

// AdvanceTo moves virtual time forward, completing jobs whose end time has
// passed (in deterministic (end, id) order) and starting queued jobs as
// cubes free up.
func (s *Scheduler) AdvanceTo(t float64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if t < s.now {
		return fmt.Errorf("%w: %.3f < %.3f", ErrTimeWarp, t, s.now)
	}
	// A same-time tick with an empty queue cannot change state; skip the
	// journal write so idle daemon ticks do not grow the log.
	if t > s.now || len(s.queue) > 0 {
		if err := s.journalLocked(JournalEntry{Op: OpAdvance, T: t}); err != nil {
			return err
		}
	}
	var firstErr error
	for len(s.done) > 0 && s.done[0].end <= t {
		rj := heap.Pop(&s.done).(*runningJob)
		s.accrueTo(rj.end)
		delete(s.running, rj.id)
		rj.pod.mirror.Release(rj.id)
		s.completed++
		s.cCompleted.Inc()
		if s.cfg.Ops != nil {
			if err := s.cfg.Ops.RemoveJobSlice(rj.pod.name, sliceName(rj.id)); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		if err := s.tryPlaceLocked(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	s.accrueTo(t)
	// Every mutator ends with a full scan, so the queue is already blocked
	// on cubes unless the cluster rejected a placement: that one becomes
	// eligible again on the next tick.
	if s.rejected {
		if err := s.tryPlaceLocked(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	s.updateGaugesLocked()
	return firstErr
}

// tryPlaceLocked runs the FIFO-with-bounded-backfill placement loop over
// the queue: the head job starts first when it fits on any up pod;
// otherwise up to backfill younger jobs may jump ahead. Pods are scanned
// in name order. A size the pods refuse is not asked again until a
// placement changes them (bit n-1 of refused; jobs are at most 64 cubes):
// by the Placer contract the answer would be the same.
func (s *Scheduler) tryPlaceLocked() error {
	for {
		placedAny := false
		limit := s.backfill
		if limit > len(s.queue) {
			limit = len(s.queue)
		}
		refused := uint64(0)
		for i := 0; i < limit; i++ {
			j := s.queue[i]
			size := uint64(1) << uint(j.spec.Cubes-1) // 0 for a size outside 1..64: never skipped
			if refused&size != 0 {
				continue
			}
			sp, cubes, err := s.placeOnAnyLocked(j)
			if err != nil {
				s.rejected = true
				return err
			}
			if sp == nil {
				refused |= size
				continue
			}
			s.queue = append(s.queue[:i], s.queue[i+1:]...)
			wait := s.now - j.arrived
			s.waitSum += wait
			s.waitCount++
			s.dWait.Observe(wait)
			rj := &runningJob{
				id:    j.id,
				pod:   sp,
				spec:  j.spec,
				cubes: cubes,
				start: s.now,
				end:   s.now + j.spec.DurationSeconds,
			}
			rj.shape = topo.MaxBisectionShape(j.spec.Cubes)
			s.running[j.id] = rj
			heap.Push(&s.done, rj)
			s.started++
			s.cStarted.Inc()
			placedAny = true
			break
		}
		if !placedAny {
			s.rejected = false
			return nil
		}
	}
}

// placeOnAnyLocked tries to place one job on each up pod in name order,
// compacting first when defrag is enabled and compaction could help. It
// returns (nil, nil, nil) when the job does not fit anywhere.
func (s *Scheduler) placeOnAnyLocked(j *queuedJob) (*schedPod, []int, error) {
	//lwlint:ignore walltime placement-latency histogram only; placement decisions depend solely on pod state
	t0 := time.Now()
	for _, sp := range s.pods {
		if sp.down {
			continue
		}
		cubes, err := s.placer.Place(sp.mirror, j.id, j.spec.Cubes)
		if err != nil && s.defrag && j.spec.Cubes <= sp.mirror.FreeCubes() {
			if err := s.defragPodLocked(sp); err != nil {
				return nil, nil, err
			}
			cubes, err = s.placer.Place(sp.mirror, j.id, j.spec.Cubes)
		}
		if err != nil {
			continue
		}
		if s.cfg.Ops != nil {
			shape := topo.MaxBisectionShape(j.spec.Cubes)
			if err := s.cfg.Ops.EnsureJobSlice(sp.name, sliceName(j.id), shape, cubes); err != nil {
				sp.mirror.Release(j.id)
				return nil, nil, err
			}
		}
		//lwlint:ignore walltime placement-latency histogram only; never a result
		s.dPlace.Observe(time.Since(t0).Seconds())
		return sp, cubes, nil
	}
	//lwlint:ignore walltime placement-latency histogram only; never a result
	s.dPlace.Observe(time.Since(t0).Seconds())
	return nil, nil, nil
}

// defragPodLocked compacts one pod's mirror and replays the migrations as
// slice reshapes so the cluster follows the moves.
func (s *Scheduler) defragPodLocked(sp *schedPod) error {
	res := sp.mirror.Defragment()
	if res.MigratedCubes == 0 {
		return nil
	}
	s.migrated += res.MigratedCubes
	s.cMigrated.Add(int64(res.MigratedCubes))
	var firstErr error
	for _, mv := range res.Moves {
		rj := s.running[mv.Job]
		if rj == nil {
			continue
		}
		rj.cubes = append(rj.cubes[:0], mv.Cubes...)
		if s.cfg.Ops != nil {
			if err := s.cfg.Ops.EnsureJobSlice(sp.name, sliceName(rj.id), rj.shape, rj.cubes); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	return firstErr
}

// preemptLocked kills a running job (cube failure on the static fabric, or
// pod loss) and releases its cubes.
func (s *Scheduler) preemptLocked(rj *runningJob) error {
	heap.Remove(&s.done, rj.heapIdx)
	delete(s.running, rj.id)
	rj.pod.mirror.Release(rj.id)
	s.preempted++
	s.cPreempted.Inc()
	if s.cfg.Ops != nil {
		return s.cfg.Ops.RemoveJobSlice(rj.pod.name, sliceName(rj.id))
	}
	return nil
}

// FailCube records a cube failure at the current virtual time. On the
// reconfigurable policy the victim job swaps onto a free cube (reshaping
// its slice); otherwise — or when no spare exists — the job is preempted.
// Failing an already-failed cube is a no-op.
func (s *Scheduler) FailCube(pod string, cube int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	sp := s.byName[pod]
	if sp == nil {
		return fmt.Errorf("%w: %q", ErrUnknownPod, pod)
	}
	if sp.mirror.State(cube) == Failed {
		return nil
	}
	if err := s.journalLocked(JournalEntry{Op: OpFailCube, Pod: pod, Cube: cube}); err != nil {
		return err
	}
	s.accrueTo(s.now)
	job, wasBusy, err := sp.mirror.Fail(cube)
	if err != nil {
		return err
	}
	s.failures++
	s.cFailures.Inc()
	var firstErr error
	if wasBusy {
		rj := s.running[job]
		swapped := false
		if _, reconf := s.placer.(Reconfigurable); reconf && rj != nil {
			if _, err := sp.mirror.SwapCube(job); err == nil {
				swapped = true
				s.swaps++
				s.cSwaps.Inc()
				rj.cubes = sp.mirror.JobCubes(job)
				if s.cfg.Ops != nil {
					firstErr = s.cfg.Ops.EnsureJobSlice(sp.name, sliceName(job), rj.shape, rj.cubes)
				}
			}
		}
		if !swapped && rj != nil {
			if err := s.preemptLocked(rj); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	if err := s.tryPlaceLocked(); err != nil && firstErr == nil {
		firstErr = err
	}
	s.updateGaugesLocked()
	return firstErr
}

// RepairCube returns a failed cube to service and retries placement.
// Repairing a healthy cube is a no-op.
func (s *Scheduler) RepairCube(pod string, cube int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	sp := s.byName[pod]
	if sp == nil {
		return fmt.Errorf("%w: %q", ErrUnknownPod, pod)
	}
	if sp.mirror.State(cube) != Failed {
		return nil
	}
	if err := s.journalLocked(JournalEntry{Op: OpRepairCube, Pod: pod, Cube: cube}); err != nil {
		return err
	}
	s.accrueTo(s.now)
	if err := sp.mirror.Repair(cube); err != nil {
		return err
	}
	s.repairs++
	s.cRepairs.Inc()
	err := s.tryPlaceLocked()
	s.updateGaugesLocked()
	return err
}

// SetPodDown marks a whole pod lost (down=true: every job on it is
// preempted and it stops receiving placements) or restored (down=false:
// it rejoins the placement scan). Setting the current state again is a
// no-op.
func (s *Scheduler) SetPodDown(pod string, down bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	sp := s.byName[pod]
	if sp == nil {
		return fmt.Errorf("%w: %q", ErrUnknownPod, pod)
	}
	if sp.down == down {
		return nil
	}
	if err := s.journalLocked(JournalEntry{Op: OpPodDown, Pod: pod, Down: down}); err != nil {
		return err
	}
	s.accrueTo(s.now)
	sp.down = down
	var firstErr error
	if down {
		var victims []int
		for id, rj := range s.running {
			if rj.pod == sp {
				victims = append(victims, id)
			}
		}
		sort.Ints(victims)
		for _, id := range victims {
			if err := s.preemptLocked(s.running[id]); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	if err := s.tryPlaceLocked(); err != nil && firstErr == nil {
		firstErr = err
	}
	s.updateGaugesLocked()
	return firstErr
}

// CubeState reports a cube's state in a pod's mirror — evaluators use it
// to decide whether a pre-generated fault event still applies.
func (s *Scheduler) CubeState(pod string, cube int) (CubeState, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sp := s.byName[pod]
	if sp == nil {
		return Failed, fmt.Errorf("%w: %q", ErrUnknownPod, pod)
	}
	return sp.mirror.State(cube), nil
}

// StartMeasurement zeroes the utilization and wait accumulators — called
// after warmup so steady-state numbers are not diluted by the fill-up
// transient. Counters (submitted, started, …) keep accumulating.
func (s *Scheduler) StartMeasurement() {
	s.mu.Lock()
	defer s.mu.Unlock()
	// Best-effort journal: a measurement reset is observability state, not
	// placement state, so a journal failure must not block it.
	_ = s.journalLocked(JournalEntry{Op: OpMeasure})
	s.accrueTo(s.now)
	s.busyIntegral = 0
	s.availIntegral = 0
	s.waitSum = 0
	s.waitCount = 0
}

// Stats snapshots the scheduler.
func (s *Scheduler) Stats() SchedulerStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := SchedulerStats{
		Now:           s.now,
		Submitted:     s.submitted,
		Started:       s.started,
		Completed:     s.completed,
		Preempted:     s.preempted,
		Swaps:         s.swaps,
		MigratedCubes: s.migrated,
		Failures:      s.failures,
		Repairs:       s.repairs,
		QueueDepth:    len(s.queue),
		RunningJobs:   len(s.running),
	}
	if s.availIntegral > 0 {
		st.Utilization = s.busyIntegral / s.availIntegral
	}
	if s.waitCount > 0 {
		st.MeanWaitSeconds = s.waitSum / float64(s.waitCount)
	}
	return st
}

// RunningSlices returns the slice names the cluster should currently be
// carrying, per pod — evaluators verify the fabric converged to exactly
// this set.
func (s *Scheduler) RunningSlices() map[string][]string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string][]string, len(s.pods))
	for _, sp := range s.pods {
		out[sp.name] = nil
	}
	ids := make([]int, 0, len(s.running))
	for id := range s.running {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		rj := s.running[id]
		out[rj.pod.name] = append(out[rj.pod.name], sliceName(id))
	}
	return out
}
