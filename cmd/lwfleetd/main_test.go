package main

import (
	"context"
	"io"
	"net/http"
	"slices"
	"strings"
	"testing"
	"time"

	"lightwave/internal/chaos"
	"lightwave/internal/ctlrpc"
	"lightwave/internal/daemon"
	"lightwave/internal/dcn"
	"lightwave/internal/fleet"
	"lightwave/internal/sched"
	"lightwave/internal/telemetry"
	"lightwave/internal/topo"
	"lightwave/internal/wal"
)

func TestBuildFleet(t *testing.T) {
	reg := telemetry.NewRegistry()
	m, injectable, err := buildFleet(4, 8, "2x200G-bidi-CWDM4", reg, nil, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if injectable != nil {
		t.Fatalf("injectable backends without -chaos: %v", injectable)
	}

	st := m.Status()
	if len(st.Pods) != 4 {
		t.Fatalf("pods = %d", len(st.Pods))
	}
	for _, ps := range st.Pods {
		if !strings.HasPrefix(ps.Name, "pod") {
			t.Errorf("pod name %q", ps.Name)
		}
		if ps.InstalledCubes != 8 {
			t.Errorf("pod %s installed = %d", ps.Name, ps.InstalledCubes)
		}
	}

	// Intents applied through the manager converge on the real fabrics.
	if err := m.SetSliceIntent("pod0", fleet.SliceIntent{
		Name: "train", Shape: topo.Shape{X: 4, Y: 4, Z: 16}, Cubes: []int{0, 1, 2, 3},
	}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		ps, err := m.PodStatus("pod0")
		if err != nil {
			t.Fatal(err)
		}
		if ps.Converged && len(ps.ActualSlices) == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("pod0 never converged: %+v", ps)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestBuildFleetChaos verifies the -chaos wiring: every pod backend is
// wrapped in an injectable shim and a pod-loss drives the reconciler to
// quarantine through the ordinary retry path.
func TestBuildFleetChaos(t *testing.T) {
	reg := telemetry.NewRegistry()
	m, injectable, err := buildFleet(2, 4, "2x200G-bidi-CWDM4", reg, nil, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if len(injectable) != 2 {
		t.Fatalf("injectable = %v", injectable)
	}

	inj, err := chaos.NewInjector(chaos.Targets{Fleet: m, Backends: injectable})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetSliceIntent("pod1", fleet.SliceIntent{
		Name: "job", Shape: topo.Shape{X: 4, Y: 4, Z: 4},
	}); err != nil {
		t.Fatal(err)
	}
	if err := inj.Apply(chaos.Event{Kind: chaos.KindPodLoss, Pod: "pod1"}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		ps, err := m.PodStatus("pod1")
		if err != nil {
			t.Fatal(err)
		}
		if ps.Quarantined {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("pod1 never quarantined: %+v", ps)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestBuildFleetErrors(t *testing.T) {
	reg := telemetry.NewRegistry()
	if _, _, err := buildFleet(0, 8, "2x200G-bidi-CWDM4", reg, nil, false, nil); err == nil {
		t.Error("zero pods accepted")
	}
	if _, _, err := buildFleet(1, 8, "no-such-module", reg, nil, false, nil); err == nil {
		t.Error("unknown transceiver accepted")
	}
}

func TestMetricsEndpoint(t *testing.T) {
	reg := telemetry.NewRegistry()
	m, _, err := buildFleet(2, 4, "2x200G-bidi-CWDM4", reg, nil, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	lis, err := reg.ServeMetrics(ctx, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get("http://" + lis.Addr().String() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content-type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "fleet.queue_depth") {
		t.Fatalf("exposition missing fleet metrics:\n%s", body)
	}
}

// TestFlowSimCountersOnMetrics mirrors compose's dcn.SetRegistry wiring: any
// flow-level DCN simulation the daemon performs must surface its
// dcn_flowsim_* event-loop counters on the shared /metrics registry.
func TestFlowSimCountersOnMetrics(t *testing.T) {
	reg := telemetry.NewRegistry()
	dcn.SetRegistry(reg)
	defer dcn.SetRegistry(nil)

	top, err := dcn.UniformMesh(4, 9)
	if err != nil {
		t.Fatal(err)
	}
	w := dcn.Workload{Demand: dcn.UniformDemand(4, 5e9), MeanFlowBytes: 2e9, Duration: 2}
	if _, err := dcn.Simulate(top, w, dcn.DefaultSimConfig()); err != nil {
		t.Fatal(err)
	}

	text := reg.Text()
	for _, name := range []string{
		"dcn_flowsim_runs_total",
		"dcn_flowsim_events_total",
		"dcn_flowsim_recompute_rounds_total",
		"dcn_flowsim_reused_rounds_total",
		"dcn_flowsim_pool_hits_total",
	} {
		if !strings.Contains(text, name) {
			t.Errorf("exposition missing %s:\n%s", name, text)
		}
	}
	if reg.Counter("dcn_flowsim_events_total").Value() == 0 {
		t.Error("dcn_flowsim_events_total stayed zero across a simulation run")
	}
}

// TestSchedCountersOnMetrics mirrors compose's -sched wiring: the background
// scheduler loop must surface its sched_* counters on the shared /metrics
// registry, and they must move once the job stream starts placing.
func TestSchedCountersOnMetrics(t *testing.T) {
	reg := telemetry.NewRegistry()
	sched.SetRegistry(reg)
	defer sched.SetRegistry(nil)

	m, _, err := buildFleet(2, 8, "2x200G-bidi-CWDM4", reg, nil, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runner, err := newSchedRunner(m, []string{"pod0", "pod1"}, 8, 2*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	go runner.Run(ctx) //nolint:errcheck // loop exits with ctx
	s := runner.Scheduler()
	if s.Policy() != "reconfigurable" {
		t.Fatalf("default policy = %q", s.Policy())
	}

	deadline := time.Now().Add(10 * time.Second)
	for reg.Counter("sched_started_total").Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("scheduler placed nothing: %+v", s.Stats())
		}
		time.Sleep(2 * time.Millisecond)
	}

	lis, err := reg.ServeMetrics(ctx, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + lis.Addr().String() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"sched_submitted_total",
		"sched_started_total",
		"sched_queue_depth",
		"sched_running_jobs",
		"sched_utilization",
		"sched_wait_seconds",
	} {
		if !strings.Contains(string(body), name) {
			t.Errorf("exposition missing %s", name)
		}
	}
}

// teConfig is a one-pod lwfleetd with the TE loop registered; its
// hour-long epoch never ticks under a test, so no stage runs.
func teConfig(stateDir string) config {
	return config{
		Flags: daemon.Flags{Addr: "127.0.0.1:0", Cubes: 8, Transceiver: "2x200G-bidi-CWDM4", StateDir: stateDir},
		pods:  1, schedTick: time.Second,
		teEpoch: time.Hour, teBlocks: 8, teUplinks: 14,
	}
}

func TestValidateTE(t *testing.T) {
	ok := teConfig("")
	if err := ok.validate(); err != nil {
		t.Fatal(err)
	}
	for want, mutate := range map[string]func(*config){
		"-te-epoch must not be negative, got -1s":               func(c *config) { c.teEpoch = -time.Second },
		"-te-blocks/-te-uplinks must be at least 2/1, got 1/14": func(c *config) { c.teBlocks = 1 },
	} {
		cfg := ok
		mutate(&cfg)
		if err := cfg.validate(); err == nil || err.Error() != want {
			t.Errorf("validate() = %v, want %q", err, want)
		}
	}
}

// TestRestartUndrainsTEStage: a crash mid-stage leaves the log holding a
// TE drain on the "dcn" pod without its undrain. The next boot restores
// the drain and, since a fresh loop has no stage in flight, journals its
// undrain: fleet-status, the store's intent state and a reopened store
// must agree that no OCS of the pod is drained.
func TestRestartUndrainsTEStage(t *testing.T) {
	dir := t.TempDir()
	st, err := wal.OpenStore(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []fleet.JournalEntry{{Op: fleet.OpAddPod, Pod: tePod}, {Op: fleet.OpDrainOCS, Pod: tePod, OCS: 3}} {
		if err := st.JournalFleet(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cfg := teConfig(dir)
	d, err := daemon.Start(ctx, "lwfleetd", &cfg.Flags, cfg.compose)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	running := true
	stop := func() {
		if running {
			running = false
			cancel()
			_ = d.Wait()
		}
	}
	t.Cleanup(stop)
	c, err := ctlrpc.Dial(d.Addr().String(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	status, err := c.FleetStatus()
	c.Close()
	if err != nil {
		t.Fatal(err)
	}
	booted, err := d.Store.FleetStateCopy()
	if err != nil {
		t.Fatal(err)
	}
	stop() // shutdown snapshot, store closed

	if st, err = wal.OpenStore(dir, wal.Options{}); err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	reopened, err := st.FleetStateCopy()
	if err != nil {
		t.Fatal(err)
	}
	i := slices.IndexFunc(status.Pods, func(p ctlrpc.FleetPodStatus) bool { return p.Name == tePod })
	if i < 0 || booted.Pods[tePod] == nil || reopened.Pods[tePod] == nil {
		t.Fatalf("pod %q missing: fleet-status %+v, store %v, reopened store %v", tePod, status.Pods, booted.Pods, reopened.Pods)
	}
	live, durable, after := status.Pods[i].DrainedOCS, booted.Pods[tePod].DrainedOCS, reopened.Pods[tePod].DrainedOCS
	if len(live) != 0 || len(durable) != 0 || len(after) != 0 {
		t.Fatalf("%s drained OCSes: fleet-status %v, store %v, reopened store %v; want none in all three",
			tePod, live, durable, after)
	}
}
