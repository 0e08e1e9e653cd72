package ctlrpc

import (
	"context"
	"net"
	"strings"
	"testing"
	"time"

	"lightwave/internal/fleet"
	"lightwave/internal/sched"
	"lightwave/internal/topo"
)

// nopOps satisfies sched.ClusterOps without a fabric: the RPC tests only
// exercise the wire protocol and the scheduler's bookkeeping.
type nopOps struct{}

func (nopOps) EnsureJobSlice(pod, slice string, shape topo.Shape, cubes []int) error { return nil }
func (nopOps) RemoveJobSlice(pod, slice string) error                                { return nil }

func startSchedFleetServer(t *testing.T) func() *Client {
	t.Helper()
	m := fleet.NewManager(fleet.Options{
		BaseBackoff:     time.Millisecond,
		MaxBackoff:      8 * time.Millisecond,
		QuarantineAfter: 3,
		Seed:            42,
	})
	t.Cleanup(m.Close)
	s, err := sched.NewScheduler(sched.SchedulerConfig{
		Pods:           []string{"p0", "p1"},
		InstalledCubes: 8,
		Ops:            nopOps{},
	})
	if err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewFleetServer(m)
	srv.SetSched(s)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ctx, lis)
	}()
	t.Cleanup(func() {
		cancel()
		<-done
	})
	return func() *Client {
		c, err := Dial(lis.Addr().String(), 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
}

func TestSchedDisabledOverWire(t *testing.T) {
	dial, _ := startChaosFleetServer(t)
	c := dial()
	st, err := c.SchedStatus()
	if err != nil {
		t.Fatal(err)
	}
	if st.Enabled {
		t.Fatalf("scheduler reported enabled on a daemon without one: %+v", st)
	}
	if _, err := c.SchedSubmit(4, 100); err == nil ||
		!strings.Contains(err.Error(), "scheduler disabled") {
		t.Fatalf("sched-submit without a scheduler: err=%v", err)
	}
}

func TestSchedSubmitStatusOverWire(t *testing.T) {
	dial := startSchedFleetServer(t)
	c := dial()

	st, err := c.SchedStatus()
	if err != nil {
		t.Fatal(err)
	}
	if !st.Enabled || st.Policy != "reconfigurable" || len(st.Pods) != 2 {
		t.Fatalf("unexpected initial status: %+v", st)
	}
	if st.RunningJobs != 0 || st.Submitted != 0 {
		t.Fatalf("fresh scheduler not idle: %+v", st)
	}

	res, err := c.SchedSubmit(4, 250)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Placed {
		t.Fatalf("4-cube job on an empty 2x8-cube fleet not placed: %+v", res)
	}
	// Oversized jobs are rejected by the scheduler, and the error crosses
	// the wire.
	if _, err := c.SchedSubmit(1000, 10); err == nil {
		t.Fatal("oversized job accepted")
	}

	st, err = c.SchedStatus()
	if err != nil {
		t.Fatal(err)
	}
	if st.Submitted != 1 || st.Started != 1 || st.RunningJobs != 1 {
		t.Fatalf("status after one placement: %+v", st)
	}
}
