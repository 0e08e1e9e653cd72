package sched

import (
	"container/heap"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"lightwave/internal/sim"
	"lightwave/internal/topo"
)

// fakeOps records ClusterOps calls and tracks the implied slice set.
type fakeOps struct {
	calls  []string
	slices map[string]map[string][]int // pod -> slice -> cubes
	fail   error
}

func newFakeOps() *fakeOps { return &fakeOps{slices: map[string]map[string][]int{}} }

func (f *fakeOps) EnsureJobSlice(pod, slice string, shape topo.Shape, cubes []int) error {
	if f.fail != nil {
		return f.fail
	}
	if shape.Cubes() != len(cubes) {
		return fmt.Errorf("shape %v does not cover %d cubes", shape, len(cubes))
	}
	if f.slices[pod] == nil {
		f.slices[pod] = map[string][]int{}
	}
	f.slices[pod][slice] = append([]int(nil), cubes...)
	f.calls = append(f.calls, fmt.Sprintf("ensure %s/%s %v", pod, slice, cubes))
	return nil
}

func (f *fakeOps) RemoveJobSlice(pod, slice string) error {
	if f.fail != nil {
		return f.fail
	}
	delete(f.slices[pod], slice)
	f.calls = append(f.calls, fmt.Sprintf("remove %s/%s", pod, slice))
	return nil
}

// names returns the slice names present on a pod, sorted.
func (f *fakeOps) names(pod string) []string {
	var out []string
	for s := range f.slices[pod] {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

func TestSchedulerLifecycle(t *testing.T) {
	ops := newFakeOps()
	s, err := NewScheduler(SchedulerConfig{Pods: []string{"pod0"}, Ops: ops})
	if err != nil {
		t.Fatal(err)
	}
	id0, placed, err := s.Submit(JobSpec{Cubes: 8, DurationSeconds: 100})
	if err != nil || !placed {
		t.Fatalf("submit = (%d, %v, %v)", id0, placed, err)
	}
	id1, placed, err := s.Submit(JobSpec{Cubes: 56, DurationSeconds: 50})
	if err != nil || !placed {
		t.Fatalf("submit = (%d, %v, %v)", id1, placed, err)
	}
	// Pod is full: a third job queues.
	id2, placed, err := s.Submit(JobSpec{Cubes: 4, DurationSeconds: 10})
	if err != nil || placed {
		t.Fatalf("submit on full pod = (%d, %v, %v)", id2, placed, err)
	}
	if got := s.Stats(); got.QueueDepth != 1 || got.RunningJobs != 2 || got.Started != 2 {
		t.Fatalf("stats %+v", got)
	}
	if got := ops.names("pod0"); !reflect.DeepEqual(got, []string{"job-0", "job-1"}) {
		t.Fatalf("fleet slices %v", got)
	}
	// At t=50 job 1 ends, freeing room for job 2 (ends t=60).
	if err := s.AdvanceTo(70); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Completed != 2 || st.RunningJobs != 1 || st.QueueDepth != 0 {
		t.Fatalf("stats after advance %+v", st)
	}
	if got := ops.names("pod0"); !reflect.DeepEqual(got, []string{"job-0"}) {
		t.Fatalf("fleet slices %v", got)
	}
	if err := s.AdvanceTo(200); err != nil {
		t.Fatal(err)
	}
	st = s.Stats()
	if st.Completed+st.Preempted+st.RunningJobs != st.Started {
		t.Fatalf("accounting %+v", st)
	}
	if len(ops.names("pod0")) != 0 {
		t.Fatalf("fleet slices %v after drain", ops.names("pod0"))
	}
	if err := s.AdvanceTo(100); !errors.Is(err, ErrTimeWarp) {
		t.Fatalf("AdvanceTo backwards = %v", err)
	}
}

func TestSchedulerFailSwapReshapesSlice(t *testing.T) {
	ops := newFakeOps()
	s, err := NewScheduler(SchedulerConfig{Pods: []string{"pod0"}, Ops: ops})
	if err != nil {
		t.Fatal(err)
	}
	id, _, err := s.Submit(JobSpec{Cubes: 4, DurationSeconds: 100})
	if err != nil {
		t.Fatal(err)
	}
	before := ops.slices["pod0"][sliceName(id)]
	if err := s.FailCube("pod0", before[0]); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Swaps != 1 || st.Preempted != 0 || st.RunningJobs != 1 {
		t.Fatalf("stats after swap %+v", st)
	}
	after := ops.slices["pod0"][sliceName(id)]
	if reflect.DeepEqual(before, after) || len(after) != 4 {
		t.Fatalf("slice not reshaped: %v -> %v", before, after)
	}
	// Double-fail of the same cube is a no-op.
	if err := s.FailCube("pod0", before[0]); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats(); got.Failures != 1 {
		t.Fatalf("double fail counted: %+v", got)
	}
}

func TestSchedulerFailPreemptsOnStatic(t *testing.T) {
	ops := newFakeOps()
	s, err := NewScheduler(SchedulerConfig{Pods: []string{"pod0"}, Placer: Contiguous{}, Ops: ops})
	if err != nil {
		t.Fatal(err)
	}
	id, _, err := s.Submit(JobSpec{Cubes: 8, DurationSeconds: 100})
	if err != nil {
		t.Fatal(err)
	}
	cubes := ops.slices["pod0"][sliceName(id)]
	if err := s.FailCube("pod0", cubes[0]); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Preempted != 1 || st.Swaps != 0 || st.RunningJobs != 0 {
		t.Fatalf("stats after static-fabric failure %+v", st)
	}
	if len(ops.names("pod0")) != 0 {
		t.Fatalf("slice still present after preemption: %v", ops.names("pod0"))
	}
	// Repair frees the cube again.
	if err := s.RepairCube("pod0", cubes[0]); err != nil {
		t.Fatal(err)
	}
	if err := s.RepairCube("pod0", cubes[0]); err != nil {
		t.Fatal(err) // idempotent
	}
	if got := s.Stats(); got.Repairs != 1 {
		t.Fatalf("repairs %+v", got)
	}
}

func TestSchedulerPodDownPreemptsAndRestores(t *testing.T) {
	ops := newFakeOps()
	s, err := NewScheduler(SchedulerConfig{Pods: []string{"a", "b"}, Ops: ops})
	if err != nil {
		t.Fatal(err)
	}
	// Fill pod a so the second job lands on b.
	if _, _, err := s.Submit(JobSpec{Cubes: 64, DurationSeconds: 500}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Submit(JobSpec{Cubes: 16, DurationSeconds: 500}); err != nil {
		t.Fatal(err)
	}
	if got := ops.names("b"); !reflect.DeepEqual(got, []string{"job-1"}) {
		t.Fatalf("pod b slices %v", got)
	}
	if err := s.SetPodDown("b", true); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Preempted != 1 || st.RunningJobs != 1 {
		t.Fatalf("stats after pod loss %+v", st)
	}
	// While down, nothing places on b even though it has free cubes.
	id, placed, err := s.Submit(JobSpec{Cubes: 16, DurationSeconds: 10})
	if err != nil || placed {
		t.Fatalf("submit while pod down = (%d, %v, %v)", id, placed, err)
	}
	if err := s.SetPodDown("b", false); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats(); got.RunningJobs != 2 || got.QueueDepth != 0 {
		t.Fatalf("stats after restore %+v", got)
	}
	if err := s.SetPodDown("missing", true); !errors.Is(err, ErrUnknownPod) {
		t.Fatalf("unknown pod error = %v", err)
	}
}

func TestSchedulerDefragReplaysMoves(t *testing.T) {
	ops := newFakeOps()
	s, err := NewScheduler(SchedulerConfig{
		Pods:   []string{"pod0"},
		Placer: ContiguousWithDefrag{}, // normalized to contiguous + defrag
		Ops:    ops,
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.Policy() != "contiguous+defrag" {
		t.Fatalf("policy %q", s.Policy())
	}
	// Checkerboard the pod with 1-cube jobs, then release every other one:
	// a 32-cube job only fits after compaction.
	var ids []int
	for i := 0; i < 64; i++ {
		id, placed, err := s.Submit(JobSpec{Cubes: 1, DurationSeconds: 1000})
		if err != nil || !placed {
			t.Fatalf("fill submit %d = (%v, %v)", i, placed, err)
		}
		ids = append(ids, id)
	}
	// Complete the even-indexed jobs early by ending them at t=1.
	for i, id := range ids {
		if i%2 == 0 {
			s.mu.Lock()
			rj := s.running[id]
			rj.end = 1
			heap.Fix(&s.done, rj.heapIdx)
			s.mu.Unlock()
		}
	}
	if err := s.AdvanceTo(2); err != nil {
		t.Fatal(err)
	}
	id, placed, err := s.Submit(JobSpec{Cubes: 32, DurationSeconds: 10})
	if err != nil || !placed {
		t.Fatalf("large submit = (%d, %v, %v)", id, placed, err)
	}
	st := s.Stats()
	if st.MigratedCubes == 0 {
		t.Fatalf("no migrations recorded: %+v", st)
	}
	// Every fleet slice must match the scheduler's running set exactly.
	want := append([]string(nil), s.RunningSlices()["pod0"]...)
	sort.Strings(want)
	if got := ops.names("pod0"); !reflect.DeepEqual(got, want) {
		t.Fatalf("fleet slices %v, scheduler wants %v", got, want)
	}
}

func TestSchedulerUtilizationExcludesDownAndFailed(t *testing.T) {
	s, err := NewScheduler(SchedulerConfig{Pods: []string{"pod0"}})
	if err != nil {
		t.Fatal(err)
	}
	// 32 busy of 64 for 100s.
	if _, _, err := s.Submit(JobSpec{Cubes: 32, DurationSeconds: 1000}); err != nil {
		t.Fatal(err)
	}
	if err := s.AdvanceTo(100); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().Utilization; got < 0.499 || got > 0.501 {
		t.Fatalf("utilization %v, want 0.5", got)
	}
	// Fail 16 free cubes: availability drops to 48, so 32/48.
	s.StartMeasurement()
	failed := 0
	for c := 0; c < 64 && failed < 16; c++ {
		if s.byName["pod0"].mirror.State(c) == Free {
			if err := s.FailCube("pod0", c); err != nil {
				t.Fatal(err)
			}
			failed++
		}
	}
	if err := s.AdvanceTo(200); err != nil {
		t.Fatal(err)
	}
	want := 32.0 / 48.0
	if got := s.Stats().Utilization; got < want-0.001 || got > want+0.001 {
		t.Fatalf("utilization %v, want %v", got, want)
	}
}

func TestSchedulerEnsureFailureRollsBackMirror(t *testing.T) {
	ops := newFakeOps()
	ops.fail = errors.New("fabric says no")
	s, err := NewScheduler(SchedulerConfig{Pods: []string{"pod0"}, Ops: ops})
	if err != nil {
		t.Fatal(err)
	}
	if _, placed, err := s.Submit(JobSpec{Cubes: 8, DurationSeconds: 10}); err == nil || placed {
		t.Fatalf("submit with failing ops = (%v, %v)", placed, err)
	}
	st := s.Stats()
	if st.Started != 0 || st.RunningJobs != 0 || st.QueueDepth != 1 {
		t.Fatalf("stats after rejected placement %+v", st)
	}
	if free := s.byName["pod0"].mirror.FreeCubes(); free != 64 {
		t.Fatalf("%d free cubes after rollback, want 64", free)
	}
	// Once the fabric recovers, the queued job places on the next event.
	ops.fail = nil
	if err := s.AdvanceTo(1); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats(); got.RunningJobs != 1 || got.QueueDepth != 0 {
		t.Fatalf("stats after recovery %+v", got)
	}
}

// countingPlacer counts placement attempts.
type countingPlacer struct {
	Reconfigurable
	calls *int
}

func (p countingPlacer) Place(pod *Pod, job, cubes int) ([]int, error) {
	*p.calls++
	return p.Reconfigurable.Place(pod, job, cubes)
}

// An arrival is AdvanceTo(t) then Submit. With the queue blocked on cubes
// and nothing completing, the queue is scanned once — by Submit — not
// once per call.
func TestSchedulerScansBlockedQueueOncePerArrival(t *testing.T) {
	calls := 0
	s, err := NewScheduler(SchedulerConfig{Pods: []string{"pod0"}, Placer: countingPlacer{calls: &calls}})
	if err != nil {
		t.Fatal(err)
	}
	if _, placed, err := s.Submit(JobSpec{Cubes: 60, DurationSeconds: 1000}); err != nil || !placed {
		t.Fatalf("submit = (%v, %v)", placed, err)
	}
	if _, placed, err := s.Submit(JobSpec{Cubes: 8, DurationSeconds: 10}); err != nil || placed {
		t.Fatalf("submit on a full pod = (%v, %v)", placed, err)
	}
	calls = 0
	if err := s.AdvanceTo(5); err != nil {
		t.Fatal(err)
	}
	if _, placed, err := s.Submit(JobSpec{Cubes: 16, DurationSeconds: 10}); err != nil || placed {
		t.Fatalf("submit on a full pod = (%v, %v)", placed, err)
	}
	if want := s.Stats().QueueDepth; calls != want {
		t.Fatalf("%d placement attempts for an arrival behind %d blocked jobs, want one scan (%d)", calls, want-1, want)
	}
	// The scan is skipped, not the placement: a completion still starts
	// what now fits.
	if err := s.AdvanceTo(1000); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats(); got.RunningJobs != 2 || got.QueueDepth != 0 {
		t.Fatalf("stats after the blocking job completed %+v", got)
	}
}

// A placement the cluster rejected is not blocked on cubes, so nothing in
// the scheduler's own state will free it: a restored scheduler has to try
// it again on its first tick, like the live one (which
// TestSchedulerEnsureFailureRollsBackMirror covers).
func TestSchedulerRetriesRejectedPlacementAfterImport(t *testing.T) {
	ops := newFakeOps()
	ops.fail = errors.New("fabric says no")
	s, err := NewScheduler(SchedulerConfig{Pods: []string{"pod0"}, Ops: ops})
	if err != nil {
		t.Fatal(err)
	}
	if _, placed, err := s.Submit(JobSpec{Cubes: 8, DurationSeconds: 10}); err == nil || placed {
		t.Fatalf("submit with failing ops = (%v, %v)", placed, err)
	}
	restored, err := NewScheduler(SchedulerConfig{Pods: []string{"pod0"}, Ops: newFakeOps()})
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.ImportState(s.ExportState()); err != nil {
		t.Fatal(err)
	}
	if err := restored.AdvanceTo(restored.Now()); err != nil {
		t.Fatal(err)
	}
	if got := restored.Stats(); got.RunningJobs != 1 || got.QueueDepth != 0 {
		t.Fatalf("stats after the restored scheduler's first tick %+v", got)
	}
}

// recordingJournal keeps every entry it is handed.
type recordingJournal struct{ entries []JournalEntry }

func (j *recordingJournal) Append(p []byte) (uint64, error) {
	e, err := decodeEntry(p)
	if err != nil {
		return 0, err
	}
	j.entries = append(j.entries, e)
	return uint64(len(j.entries)), nil
}

// The refused-size skip cannot be switched off, so the test below takes
// the duplicates away instead: a tag hidden in the cube count (real sizes
// are 1..tagBase) makes equal sizes look distinct to the scheduler's scan
// while the placer, the cluster and the journal see the real size.
const tagBase = 8

func untag(cubes int) int { return (cubes-1)%tagBase + 1 }

type untaggingPlacer struct{ calls *int }

func (untaggingPlacer) Name() string { return "untagging" }
func (p untaggingPlacer) Place(pod *Pod, job, cubes int) ([]int, error) {
	*p.calls++
	return Reconfigurable{}.Place(pod, job, untag(cubes))
}

// rejectNth fails exactly one EnsureJobSlice call, and hands the cluster
// the shape of the real size: the scheduler shaped the tagged one.
type rejectNth struct {
	*fakeOps
	n int
}

func (r *rejectNth) EnsureJobSlice(pod, slice string, _ topo.Shape, cubes []int) error {
	if r.n--; r.n == 0 {
		return errors.New("fabric says no")
	}
	return r.fakeOps.EnsureJobSlice(pod, slice, topo.MaxBisectionShape(len(cubes)), cubes)
}

// TestSchedulerSkipMatchesFullScan runs one saturating two-pod stream —
// a pod loss and restore, cube failures, one cluster rejection — twice:
// with same-size duplicates in the backfill window (the skip fires) and
// with every queued size made distinct by a tag (it cannot). Slices,
// stats, cluster calls and journal must not tell the runs apart.
func TestSchedulerSkipMatchesFullScan(t *testing.T) {
	type outcome struct {
		slices  map[string][]string
		stats   SchedulerStats
		calls   []string
		journal []string
		asks    int
	}
	run := func(tagged bool) outcome {
		var out outcome
		ops := &rejectNth{fakeOps: newFakeOps(), n: 9}
		j := &recordingJournal{}
		s, err := NewScheduler(SchedulerConfig{
			Pods:           []string{"a", "b"},
			Placer:         untaggingPlacer{calls: &out.asks},
			BackfillWindow: 8,
			Ops:            ops,
		})
		if err != nil {
			t.Fatal(err)
		}
		s.SetJournal(j)
		rng := sim.NewRand(17)
		now, rejections := 0.0, 0
		for step := 0; step < 400; step++ {
			now += rng.ExpFloat64() * 2
			if err := s.AdvanceTo(now); err != nil {
				t.Fatal(err)
			}
			switch step {
			case 20:
				err = s.SetPodDown("b", true)
			case 250:
				err = s.SetPodDown("b", false)
			case 100, 140:
				err = s.FailCube("a", step%64)
			case 180:
				err = s.RepairCube("a", 100%64)
			}
			if err != nil {
				t.Fatal(err)
			}
			cubes := []int{8, 8, 8, 4, 4, 2, 1}[rng.Intn(7)]
			if tagged {
				cubes += tagBase * (step % (64 / tagBase))
			}
			if _, _, err := s.Submit(JobSpec{Cubes: cubes, DurationSeconds: 20 + rng.ExpFloat64()*60}); err != nil {
				rejections++
			}
		}
		if rejections != 1 {
			t.Fatalf("tagged=%v: %d submits hit the cluster rejection, want 1", tagged, rejections)
		}
		out.slices, out.stats, out.calls = s.RunningSlices(), s.Stats(), ops.calls
		for _, e := range j.entries {
			if e.Spec != nil {
				spec := *e.Spec
				spec.Cubes = untag(spec.Cubes)
				e.Spec = &spec
				out.journal = append(out.journal, fmt.Sprintf("%s %+v", e.Op, spec))
				continue
			}
			out.journal = append(out.journal, fmt.Sprintf("%+v", e))
		}
		return out
	}
	dup, distinct := run(false), run(true)
	if dup.stats.QueueDepth == 0 || dup.stats.Preempted == 0 {
		t.Fatalf("stream never queued or never preempted: %+v", dup.stats)
	}
	if dup.asks >= distinct.asks {
		t.Fatalf("%d placement asks with duplicate sizes, %d without: the skip never fired", dup.asks, distinct.asks)
	}
	if !reflect.DeepEqual(dup.slices, distinct.slices) {
		t.Errorf("running slices differ:\n%v\n%v", dup.slices, distinct.slices)
	}
	if dup.stats != distinct.stats {
		t.Errorf("stats differ:\n%+v\n%+v", dup.stats, distinct.stats)
	}
	for name, pair := range map[string][2][]string{"cluster calls": {dup.calls, distinct.calls}, "journal": {dup.journal, distinct.journal}} {
		for i := 0; i < len(pair[0]) || i < len(pair[1]); i++ {
			if i >= len(pair[0]) || i >= len(pair[1]) || pair[0][i] != pair[1][i] {
				t.Errorf("%s differ from entry %d on (%d vs %d entries)", name, i, len(pair[0]), len(pair[1]))
				break
			}
		}
	}
}
