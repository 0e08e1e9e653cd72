package main

import (
	"context"
	"net"
	"strings"
	"testing"
	"time"

	"lightwave/internal/core"
	"lightwave/internal/ctlrpc"
	"lightwave/internal/fleet"
	"lightwave/internal/sched"
	"lightwave/internal/superpod"
)

// testSchedDial brings up a fleet server with a live scheduler attached —
// the lwfleetd -sched wiring — without the background job stream, so
// tests control every submission.
func testSchedDial(t *testing.T) func() *ctlrpc.Client {
	t.Helper()
	m := fleet.NewManager(fleet.Options{
		BaseBackoff: time.Millisecond,
		MaxBackoff:  8 * time.Millisecond,
	})
	t.Cleanup(m.Close)
	for _, name := range []string{"pod0", "pod1"} {
		f, err := core.New(core.DefaultConfig(8))
		if err != nil {
			t.Fatal(err)
		}
		if err := m.AddPod(name, fleet.NewFabricBackend(f, nil)); err != nil {
			t.Fatal(err)
		}
	}
	s, err := sched.NewScheduler(sched.SchedulerConfig{
		Pods:           []string{"pod0", "pod1"},
		InstalledCubes: 8,
		Ops:            superpod.FleetOps{M: m},
	})
	if err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := ctlrpc.NewFleetServer(m)
	srv.SetSched(s)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ctx, lis)
	}()
	t.Cleanup(func() { cancel(); <-done })
	return func() *ctlrpc.Client {
		c, err := ctlrpc.Dial(lis.Addr().String(), 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
}

// TestDispatchSchedDisabled exercises the CLI against a daemon without
// -sched: status prints the disabled form, submit surfaces the server's
// rejection.
func TestDispatchSchedDisabled(t *testing.T) {
	dial := testFleetDial(t)
	c := dial()

	if err := dispatch(c, []string{"sched", "status"}); err != nil {
		t.Fatal(err)
	}
	err := dispatch(c, []string{"sched", "submit", "4", "100"})
	if err == nil || !strings.Contains(err.Error(), "scheduler disabled") {
		t.Fatalf("submit on disabled daemon: %v", err)
	}
	if err := dispatch(c, []string{"sched"}); err == nil {
		t.Fatal("bare sched accepted")
	}
	if err := dispatch(c, []string{"sched", "bogus"}); err == nil {
		t.Fatal("unknown subcommand accepted")
	}
}

// TestDispatchSchedCommands drives submit and status end to end: the
// submitted job becomes a slice intent the reconciler realizes on a real
// fabric.
func TestDispatchSchedCommands(t *testing.T) {
	dial := testSchedDial(t)
	c := dial()

	if err := dispatch(c, []string{"sched", "status"}); err != nil {
		t.Fatal(err)
	}
	if err := dispatch(c, []string{"sched", "submit", "4", "250"}); err != nil {
		t.Fatal(err)
	}
	st, err := c.SchedStatus()
	if err != nil {
		t.Fatal(err)
	}
	if !st.Enabled || st.Submitted != 1 || st.RunningJobs != 1 {
		t.Fatalf("status after submit: %+v", st)
	}
	// Bad arguments fail client-side; oversized jobs fail server-side.
	if err := dispatch(c, []string{"sched", "submit", "4"}); err == nil {
		t.Fatal("missing duration accepted")
	}
	if err := dispatch(c, []string{"sched", "submit", "x", "10"}); err == nil {
		t.Fatal("non-numeric cubes accepted")
	}
	if err := dispatch(c, []string{"sched", "submit", "4096", "10"}); err == nil {
		t.Fatal("oversized job accepted")
	}
}
