package wal_test

// Restart equivalence: a daemon that journals a scripted mutation stream,
// snapshots on SIGTERM, and reopens from its -state-dir must answer
// fleet-status and sched-status exactly like a daemon that ran the same
// stream uninterrupted. The harness below mirrors cmd/lwfleetd's boot and
// shutdown ordering against a real fleet server on a loopback socket.

import (
	"context"
	"fmt"
	"net"
	"reflect"
	"sort"
	"testing"
	"time"

	"lightwave/internal/core"
	"lightwave/internal/ctlrpc"
	"lightwave/internal/fleet"
	"lightwave/internal/sched"
	"lightwave/internal/superpod"
	"lightwave/internal/wal"
)

const (
	restartPods  = 3
	restartCubes = 8
)

// session is one daemon lifetime: manager, scheduler, RPC server, client.
type session struct {
	m      *fleet.Manager
	s      *sched.Scheduler
	cli    *ctlrpc.Client
	cancel context.CancelFunc
	done   chan error
}

// startSession boots a control plane the way cmd/lwfleetd does. store may
// be nil (durability disabled); recover replays the store's state first,
// mirroring the daemon's BeginRecovery/EndRecovery bracket.
func startSession(t *testing.T, store *wal.Store, recover bool) *session {
	t.Helper()
	var journal fleet.Journal
	if store != nil {
		journal = store
		if recover {
			store.BeginRecovery()
		}
	}
	m := fleet.NewManager(fleet.Options{Journal: journal})
	podNames := make([]string, restartPods)
	for i := range podNames {
		podNames[i] = fmt.Sprintf("pod%d", i)
		f, err := core.New(core.DefaultConfig(restartCubes))
		if err != nil {
			t.Fatal(err)
		}
		if err := m.AddPod(podNames[i], fleet.NewFabricBackend(f, nil)); err != nil {
			t.Fatal(err)
		}
	}
	if store != nil && recover {
		if err := store.RecoverFleet(m); err != nil {
			t.Fatalf("RecoverFleet: %v", err)
		}
	}
	// The scheduler owns pod2; manual apply-intent mutations target
	// pod0/pod1, so the mirror's free-cube view stays truthful.
	s, err := sched.NewScheduler(sched.SchedulerConfig{
		Pods:           []string{"pod2"},
		InstalledCubes: restartCubes,
		Ops:            superpod.FleetOps{M: m},
	})
	if err != nil {
		t.Fatal(err)
	}
	if store != nil {
		// On a fresh store this only attaches the scheduler's section.
		j, _, _, err := store.Attach(wal.RecordSched, s)
		if err != nil {
			t.Fatalf("Attach: %v", err)
		}
		s.SetJournal(j)
		if recover {
			store.EndRecovery()
		}
	}

	srv := ctlrpc.NewFleetServer(m)
	srv.SetSched(s)
	if store != nil {
		srv.SetWAL(store)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx, lis) }()
	cli, err := ctlrpc.Dial(lis.Addr().String(), 3*time.Second)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	return &session{m: m, s: s, cli: cli, cancel: cancel, done: done}
}

// shutdown mirrors the daemon's stop ordering: listener down, runners
// drained, then (for the crash-restart caller) snapshot and close.
func (ss *session) shutdown(t *testing.T) {
	t.Helper()
	ss.cli.Close()
	ss.cancel()
	<-ss.done
	ss.m.Close()
}

// mutatePhase1 is the pre-checkpoint half of the scripted stream.
func mutatePhase1(t *testing.T, ss *session) {
	t.Helper()
	if _, err := ss.cli.ApplyIntent(ctlrpc.ApplyIntentParams{
		Pod:    "pod0",
		Slices: []ctlrpc.SliceIntentSpec{{Name: "train", Shape: [3]int{4, 4, 16}, Cubes: []int{0, 1, 2, 3}}},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := ss.cli.ApplyIntent(ctlrpc.ApplyIntentParams{
		Pod:    "pod1",
		Slices: []ctlrpc.SliceIntentSpec{{Name: "batch", Shape: [3]int{4, 4, 16}, Cubes: []int{0, 1, 2, 3}}},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := ss.cli.SchedSubmit(2, 100); err != nil {
		t.Fatal(err)
	}
	if _, err := ss.cli.SchedSubmit(2, 40); err != nil {
		t.Fatal(err)
	}
	if err := ss.s.AdvanceTo(5); err != nil {
		t.Fatal(err)
	}
}

// mutatePhase2 is the post-checkpoint half — it lands in the journal tail
// after the mid-stream snapshot.
func mutatePhase2(t *testing.T, ss *session) {
	t.Helper()
	if _, err := ss.cli.ApplyIntent(ctlrpc.ApplyIntentParams{
		Pod:    "pod0",
		Slices: []ctlrpc.SliceIntentSpec{{Name: "aux", Shape: [3]int{4, 4, 16}, Cubes: []int{4, 5, 6, 7}}},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := ss.cli.ApplyIntent(ctlrpc.ApplyIntentParams{
		Pod:    "pod1",
		Slices: []ctlrpc.SliceIntentSpec{{Name: "batch", Remove: true}},
	}); err != nil {
		t.Fatal(err)
	}
	// An OCS drain/undrain pair exercises the drain journal ops without
	// leaving behavior that would defer convergence.
	ocs := 9
	if err := ss.cli.Drain("pod1", &ocs); err != nil {
		t.Fatal(err)
	}
	if err := ss.cli.Undrain("pod1", &ocs); err != nil {
		t.Fatal(err)
	}
	if _, err := ss.cli.SchedSubmit(4, 20); err != nil {
		t.Fatal(err)
	}
	if err := ss.s.AdvanceTo(12); err != nil {
		t.Fatal(err)
	}
}

// waitConverged polls fleet-status until every pod converged.
func waitConverged(t *testing.T, ss *session) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		st, err := ss.cli.FleetStatus()
		if err != nil {
			t.Fatal(err)
		}
		all := len(st.Pods) == restartPods
		for _, p := range st.Pods {
			if !p.Converged {
				all = false
			}
		}
		if all && st.QueueDepth == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("fleet never converged: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// normalizeFleet sorts everything order-insensitive so two equal fleets
// compare equal regardless of map iteration order.
func normalizeFleet(st fleet.Status) fleet.Status {
	sort.Slice(st.Pods, func(i, j int) bool { return st.Pods[i].Name < st.Pods[j].Name })
	for i := range st.Pods {
		sort.Strings(st.Pods[i].DesiredSlices)
		sort.Strings(st.Pods[i].ActualSlices)
		sort.Ints(st.Pods[i].DrainedOCS)
	}
	return st
}

func capture(t *testing.T, ss *session) (fleet.Status, ctlrpc.SchedStatusResult) {
	t.Helper()
	fs, err := ss.cli.FleetStatus()
	if err != nil {
		t.Fatal(err)
	}
	sc, err := ss.cli.SchedStatus()
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(sc.Pods)
	return normalizeFleet(fs), sc
}

// uninterrupted runs both phases with no durability at all: the control
// every restart variant must answer like.
func uninterrupted(t *testing.T) (fleet.Status, ctlrpc.SchedStatusResult) {
	t.Helper()
	ctl := startSession(t, nil, false)
	mutatePhase1(t, ctl)
	mutatePhase2(t, ctl)
	waitConverged(t, ctl)
	wantFleet, wantSched := capture(t, ctl)
	ctl.shutdown(t)
	return wantFleet, wantSched
}

// reopen opens dir and recovers a session from it, daemon-style.
func reopen(t *testing.T, dir string) (*wal.Store, *session) {
	t.Helper()
	store, err := wal.OpenStore(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return store, startSession(t, store, true)
}

// TestRecoveryCheckpointCoversTail: a checkpoint taken right after crash
// recovery, before any new scheduler input, must record the LSN of the
// last replayed sched record. Recording the old snapshot's instead would
// make the next boot replay the tail a second time.
func TestRecoveryCheckpointCoversTail(t *testing.T) {
	_, wantSched := uninterrupted(t)

	dir := t.TempDir()
	store, err := wal.OpenStore(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ss := startSession(t, store, false)
	mutatePhase1(t, ss)
	if err := store.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	mutatePhase2(t, ss)
	waitConverged(t, ss)
	ss.shutdown(t)
	if err := store.Close(); err != nil { // the crash: no shutdown snapshot
		t.Fatal(err)
	}

	store2, ss2 := reopen(t, dir)
	if err := store2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	ss2.shutdown(t)
	if err := store2.Close(); err != nil {
		t.Fatal(err)
	}

	store3, ss3 := reopen(t, dir)
	defer store3.Close()
	waitConverged(t, ss3)
	_, gotSched := capture(t, ss3)
	ss3.shutdown(t)
	if !reflect.DeepEqual(wantSched, gotSched) {
		t.Errorf("sched-status diverged after a post-recovery checkpoint:\nwant %+v\ngot  %+v", wantSched, gotSched)
	}
}

func TestRestartEquivalence(t *testing.T) {
	// Run A: the uninterrupted control — no durability at all.
	wantFleet, wantSched := uninterrupted(t)

	// Run B: journal the same stream, checkpoint mid-stream (so recovery
	// crosses a snapshot + tail boundary), SIGTERM-snapshot, shut down.
	dir := t.TempDir()
	store, err := wal.OpenStore(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ss := startSession(t, store, false)
	mutatePhase1(t, ss)
	if err := store.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	mutatePhase2(t, ss)
	waitConverged(t, ss)
	ss.shutdown(t)
	if err := store.Checkpoint(); err != nil { // the SIGTERM snapshot
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen from the state dir and recover, daemon-style.
	store2, ss2 := reopen(t, dir)
	defer store2.Close()
	st := store2.Status()
	if st.TruncatedBytes != 0 || st.DroppedSegments != 0 || st.ReplayErrors != 0 {
		t.Fatalf("clean shutdown replayed dirty: %+v", st)
	}
	waitConverged(t, ss2)
	gotFleet, gotSched := capture(t, ss2)
	// wal-status over RPC reports the recovered substrate.
	ws, err := ss2.cli.WALStatus()
	if err != nil {
		t.Fatal(err)
	}
	if !ws.Enabled || ws.ReplayRecords == 0 || ws.FleetDigest == "" {
		t.Errorf("wal-status after recovery = %+v", ws)
	}
	ss2.shutdown(t)

	if !reflect.DeepEqual(wantFleet, gotFleet) {
		t.Errorf("fleet-status diverged after restart:\nwant %+v\ngot  %+v", wantFleet, gotFleet)
	}
	if !reflect.DeepEqual(wantSched, gotSched) {
		t.Errorf("sched-status diverged after restart:\nwant %+v\ngot  %+v", wantSched, gotSched)
	}
}
