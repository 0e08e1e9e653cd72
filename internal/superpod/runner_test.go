package superpod

import (
	"context"
	"testing"
	"time"

	"lightwave/internal/chaos"
	"lightwave/internal/core"
	"lightwave/internal/fleet"
	"lightwave/internal/sched"
)

// testLab builds the chaos lab over n 8-cube core.Fabric pods, closed with
// the test.
func testLab(t *testing.T, seed uint64, n int) (*chaos.Lab, []*fleet.FabricBackend) {
	t.Helper()
	fbs := make([]*fleet.FabricBackend, n)
	inner := make([]fleet.Backend, n)
	for i := range fbs {
		f, err := core.New(core.DefaultConfig(8))
		if err != nil {
			t.Fatal(err)
		}
		fbs[i] = fleet.NewFabricBackend(f, nil)
		inner[i] = fbs[i]
	}
	lab, err := chaos.NewLab(seed, inner, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(lab.Close)
	return lab, fbs
}

// TestRunnerTrimsMixToInstalledCubes is the regression for the live-daemon
// failure mode: the default production mix offers 32-cube jobs, which a
// small-pod daemon (-cubes 8) must drop from the stream rather than die on
// the scheduler's oversize rejection.
func TestRunnerTrimsMixToInstalledCubes(t *testing.T) {
	lab, _ := testLab(t, 0, 1)
	mgr := lab.Manager
	r, err := NewRunner(RunnerConfig{
		Manager:        mgr,
		Pods:           []string{"pod0"},
		InstalledCubes: 8,
		Interval:       time.Millisecond,
		Seed:           11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := r.cfg.Mix.Sizes; got[len(got)-1] > 8 {
		t.Fatalf("mix not trimmed: %v", got)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- r.Run(ctx) }()
	deadline := time.After(10 * time.Second)
	for r.Scheduler().Stats().Submitted < 20 {
		select {
		case err := <-done:
			t.Fatalf("runner died on the default mix: %v", err)
		case <-deadline:
			t.Fatalf("no submissions: %+v", r.Scheduler().Stats())
		case <-time.After(time.Millisecond):
		}
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	// A mix with no feasible size is rejected up front.
	if _, err := NewRunner(RunnerConfig{
		Manager:        mgr,
		Pods:           []string{"pod0"},
		InstalledCubes: 8,
		Mix:            sched.JobMix{Sizes: []int{16, 32}, Weights: []float64{0.5, 0.5}, MeanDuration: 100, ArrivalRate: 0.1},
	}); err == nil {
		t.Fatal("infeasible mix accepted")
	}
	// Mismatched sizes/weights are rejected up front.
	if _, err := NewRunner(RunnerConfig{
		Manager:        mgr,
		Pods:           []string{"pod0"},
		InstalledCubes: 8,
		Mix:            sched.JobMix{Sizes: []int{1, 2}, Weights: []float64{1}, MeanDuration: 100, ArrivalRate: 0.1},
	}); err == nil {
		t.Fatal("mismatched mix accepted")
	}
}

// TestRunnerResumesRecoveredClock is the crash-recovery regression: after
// the store's Attach replays the journal, the scheduler's virtual clock
// resumes far ahead of the runner's freshly seeded arrival clock. The
// first tick must re-anchor the arrival stream instead of calling
// AdvanceTo backwards and killing the loop.
func TestRunnerResumesRecoveredClock(t *testing.T) {
	lab, _ := testLab(t, 0, 1)
	mgr := lab.Manager
	r, err := NewRunner(RunnerConfig{
		Manager:        mgr,
		Pods:           []string{"pod0"},
		InstalledCubes: 8,
		Mix: sched.JobMix{
			Sizes: []int{1, 2}, Weights: []float64{0.7, 0.3},
			MeanDuration: 200, ArrivalRate: 0.1,
		},
		Interval: time.Millisecond,
		Seed:     5,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Simulate a journal replay leaving the clock at virtual t=4800s.
	if err := r.Scheduler().AdvanceTo(4800); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- r.Run(ctx) }()
	deadline := time.After(10 * time.Second)
	for r.Scheduler().Stats().Submitted < 5 {
		select {
		case err := <-done:
			t.Fatalf("runner died on the recovered clock: %v", err)
		case <-deadline:
			t.Fatalf("no submissions after recovery: %+v", r.Scheduler().Stats())
		case <-time.After(time.Millisecond):
		}
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if now := r.Scheduler().Now(); now < 4800 {
		t.Fatalf("clock went backwards: %v", now)
	}
}

func TestRunnerTicksAgainstFleet(t *testing.T) {
	lab, fbs := testLab(t, 3, 2)
	mgr, pods := lab.Manager, lab.Pods
	r, err := NewRunner(RunnerConfig{
		Manager:        mgr,
		Pods:           pods,
		InstalledCubes: 8,
		Mix: sched.JobMix{
			Sizes: []int{1, 2}, Weights: []float64{0.7, 0.3},
			MeanDuration: 200, ArrivalRate: 0.1,
		},
		Interval: 2 * time.Millisecond,
		Seed:     5,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- r.Run(ctx) }()

	deadline := time.After(10 * time.Second)
	for r.Scheduler().Stats().Started < 5 {
		select {
		case err := <-done:
			t.Fatalf("runner exited early: %v", err)
		case <-deadline:
			t.Fatalf("no placements after 10s: %+v", r.Scheduler().Stats())
		case <-time.After(2 * time.Millisecond):
		}
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	st := r.Scheduler().Stats()
	if st.Completed+st.Preempted+st.RunningJobs != st.Started {
		t.Fatalf("accounting broken: %+v", st)
	}
	// The fleet should carry some of the scheduler's slices once the
	// reconciler catches up.
	settleDeadline := time.Now().Add(5 * time.Second)
	for {
		total := 0
		for _, fb := range fbs {
			total += len(fb.Slices())
		}
		if total == st.RunningJobs {
			break
		}
		if time.Now().After(settleDeadline) {
			t.Fatalf("fleet carries %d slices, scheduler runs %d jobs", total, st.RunningJobs)
		}
		time.Sleep(time.Millisecond)
	}
}
