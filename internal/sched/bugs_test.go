package sched

import (
	"errors"
	"testing"

	"lightwave/internal/sim"
)

// checkConsistent verifies the pod's ownership/occupancy invariants: Busy
// cubes have owners, non-busy cubes do not, and every job's cube count
// matches want (when non-nil).
func checkConsistent(t *testing.T, p *Pod, want map[int]int) {
	t.Helper()
	got := map[int]int{}
	for c := range p.state {
		switch p.state[c] {
		case Busy:
			if p.owner[c] < 0 {
				t.Fatalf("busy cube %d has no owner", c)
			}
			got[p.owner[c]]++
		default:
			if p.owner[c] != -1 {
				t.Fatalf("%v cube %d owned by job %d", p.state[c], c, p.owner[c])
			}
		}
	}
	if want == nil {
		return
	}
	for j, n := range want {
		if got[j] != n {
			t.Fatalf("job %d owns %d cubes, want %d (all: %v)", j, got[j], n, got)
		}
	}
	for j := range got {
		if _, ok := want[j]; !ok {
			t.Fatalf("unexpected job %d owns %d cubes", j, got[j])
		}
	}
}

// TestSimulatePreemptionAccounting is the regression test for the stale
// completion event: under heavy failure injection on the static fabric,
// every preempted job used to also count as completed when its never-
// cancelled completion timer fired (double-releasing cubes another job may
// have reused). The invariant Started = Completed + Preempted + Running
// only holds when preemption cancels the completion event.
func TestSimulatePreemptionAccounting(t *testing.T) {
	mix := ProductionMix()
	for _, tc := range []struct {
		name   string
		placer Placer
	}{
		{"contiguous", Contiguous{}},
		{"reconfigurable", Reconfigurable{}},
		{"contiguous+defrag", ContiguousWithDefrag{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// MTBF low enough that preemptions are plentiful.
			cfg := SimConfig{Duration: 100000, Seed: 11, CubeMTBF: 20000, MeanRepair: 4000}
			st, err := Simulate(FullPod(), tc.placer, mix, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, static := tc.placer.(Reconfigurable); !static && st.Preempted == 0 {
				t.Fatal("failure injection preempted nothing; test is vacuous")
			}
			if st.Completed+st.Preempted+st.Running != st.Started {
				t.Fatalf("accounting broken: completed %d + preempted %d + running %d != started %d",
					st.Completed, st.Preempted, st.Running, st.Started)
			}
		})
	}
}

// TestDefragmentUnmovableJobDoesNotCorrupt is the regression test for the
// defrag fallback: on a 1x1x6 pod, job 2 on {0,2} cannot be re-boxed once
// job 1 has been compacted onto {0,1} (cubes 3,4 are failed), and the old
// force-restore of {0,2} left cube 0 owned by both jobs.
func TestDefragmentUnmovableJobDoesNotCorrupt(t *testing.T) {
	p, err := NewPod([3]int{1, 1, 6})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Occupy(1, []int{1, 5}); err != nil {
		t.Fatal(err)
	}
	if err := p.Occupy(2, []int{0, 2}); err != nil {
		t.Fatal(err)
	}
	for _, c := range []int{3, 4} {
		if _, _, err := p.Fail(c); err != nil {
			t.Fatal(err)
		}
	}
	res := p.Defragment()
	checkConsistent(t, p, map[int]int{1: 2, 2: 2})
	if res.Unmovable == 0 {
		t.Fatal("no job reported unmovable despite failed cubes blocking compaction")
	}
	// Releasing each job must free exactly its cubes — the old corruption
	// leaked a cube here because two jobs claimed it.
	if freed := p.Release(1); len(freed) != 2 {
		t.Fatalf("job 1 released %v, want 2 cubes", freed)
	}
	if freed := p.Release(2); len(freed) != 2 {
		t.Fatalf("job 2 released %v, want 2 cubes", freed)
	}
	if p.BusyCubes() != 0 {
		t.Fatalf("%d busy cubes left after releasing every job", p.BusyCubes())
	}
}

// TestDefragmentConsistentUnderChurn hammers place/release/fail/defrag
// cycles and checks ownership consistency after every pass.
func TestDefragmentConsistentUnderChurn(t *testing.T) {
	rng := sim.NewRand(7)
	p := FullPod()
	placer := Contiguous{}
	live := map[int]int{}
	next := 0
	for step := 0; step < 400; step++ {
		switch rng.Intn(4) {
		case 0, 1: // place
			n := []int{1, 1, 2, 2, 4, 8}[rng.Intn(6)]
			if _, err := placer.Place(p, next, n); err == nil {
				live[next] = n
				next++
			}
		case 2: // release a random live job
			for j := range live {
				p.Release(j)
				delete(live, j)
				break
			}
		case 3: // fail or repair a cube
			c := rng.Intn(p.Cubes())
			if p.State(c) == Failed {
				if err := p.Repair(c); err != nil {
					t.Fatal(err)
				}
			} else {
				job, wasBusy, err := p.Fail(c)
				if err != nil {
					t.Fatal(err)
				}
				if wasBusy {
					p.Release(job)
					delete(live, job)
				}
			}
		}
		res := p.Defragment()
		checkConsistent(t, p, live)
		for _, mv := range res.Moves {
			if len(mv.Cubes) != live[mv.Job] {
				t.Fatalf("move for job %d reports %d cubes, want %d", mv.Job, len(mv.Cubes), live[mv.Job])
			}
		}
	}
}

// TestFailIdempotent is the regression test for the double-fail bug:
// failing a failed cube must be a no-op — no owner evicted, no state
// change — so the caller never schedules a duplicate repair timer.
func TestFailIdempotent(t *testing.T) {
	p := FullPod()
	if _, err := (Reconfigurable{}).Place(p, 1, 2); err != nil {
		t.Fatal(err)
	}
	job, wasBusy, err := p.Fail(0)
	if err != nil || !wasBusy || job != 1 {
		t.Fatalf("first Fail = (%d, %v, %v), want (1, true, nil)", job, wasBusy, err)
	}
	job, wasBusy, err = p.Fail(0)
	if err != nil || wasBusy || job != 0 {
		t.Fatalf("second Fail = (%d, %v, %v), want (0, false, nil)", job, wasBusy, err)
	}
	if p.State(0) != Failed {
		t.Fatalf("cube 0 state %v after double fail", p.State(0))
	}
	if err := p.Repair(0); err != nil {
		t.Fatal(err)
	}
	// Exactly one repair outstanding: a second Repair (the duplicate timer
	// the old code scheduled) errors.
	if err := p.Repair(0); err == nil {
		t.Fatal("second Repair of a healthy cube succeeded")
	}
	if p.State(0) != Free {
		t.Fatalf("cube 0 state %v after repair", p.State(0))
	}
}

// TestSimulateDeterministicAcrossReruns pins the full Stats struct across
// reruns with failures and preemptions in play.
func TestSimulateDeterministicAcrossReruns(t *testing.T) {
	cfg := SimConfig{Duration: 80000, Seed: 4, CubeMTBF: 40000, MeanRepair: 3000}
	a, err := Simulate(FullPod(), Contiguous{}, ProductionMix(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(FullPod(), Contiguous{}, ProductionMix(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("same seed, different stats:\n%+v\n%+v", a, b)
	}
}

// TestSubmitRejectsUnboxableSize is the regression test for the wedged
// contiguous queue: a 4×4×4 grid has no axis-aligned box of 5 (or 7, 10,
// …) cubes, so such a job can never start, and six of them used to fill
// the default backfill window and pin every later job behind them.
func TestSubmitRejectsUnboxableSize(t *testing.T) {
	for _, placer := range []Placer{Contiguous{}, ContiguousWithDefrag{}} {
		j := &recordingJournal{}
		s, err := NewScheduler(SchedulerConfig{Pods: []string{"pod0"}, Placer: placer})
		if err != nil {
			t.Fatal(err)
		}
		s.SetJournal(j)
		for i := 0; i < 6; i++ {
			if _, _, err := s.Submit(JobSpec{Cubes: 5, DurationSeconds: 10}); !errors.Is(err, ErrNoBox) {
				t.Fatalf("%s: Submit of an un-boxable size = %v, want ErrNoBox", placer.Name(), err)
			}
		}
		if len(j.entries) != 0 {
			t.Fatalf("%s: rejected submits were journaled: %+v", placer.Name(), j.entries)
		}
		if _, placed, err := s.Submit(JobSpec{Cubes: 1, DurationSeconds: 10}); err != nil || !placed {
			t.Fatalf("%s: 1-cube submit on an empty pod = (%v, %v)", placer.Name(), placed, err)
		}
		if err := s.AdvanceTo(1e6); err != nil {
			t.Fatal(err)
		}
		if st := s.Stats(); st.QueueDepth != 0 || st.Started != 1 || st.Completed != 1 {
			t.Fatalf("%s: stats %+v, want the one placeable job run to completion", placer.Name(), st)
		}
	}
	// The reconfigurable fabric composes any cube count.
	s, err := NewScheduler(SchedulerConfig{Pods: []string{"pod0"}})
	if err != nil {
		t.Fatal(err)
	}
	if _, placed, err := s.Submit(JobSpec{Cubes: 5, DurationSeconds: 10}); err != nil || !placed {
		t.Fatalf("reconfigurable 5-cube submit = (%v, %v)", placed, err)
	}
}

// TestOccupyRejectsDuplicateCube: a cube listed twice (a damaged snapshot
// through ImportState) used to pass the all-free check and leave a job
// holding fewer cubes than its spec says.
func TestOccupyRejectsDuplicateCube(t *testing.T) {
	p := FullPod()
	if err := p.Occupy(1, []int{3, 3}); !errors.Is(err, ErrBadCube) {
		t.Fatalf("Occupy with cube 3 twice = %v, want ErrBadCube", err)
	}
	if p.FreeCubes() != 64 {
		t.Fatalf("%d free cubes after a rejected Occupy, want 64", p.FreeCubes())
	}
}
