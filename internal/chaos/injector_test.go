package chaos

import (
	"errors"
	"testing"
	"time"

	"lightwave/internal/dcn"
	"lightwave/internal/fec"
	"lightwave/internal/fleet"
	"lightwave/internal/telemetry"
	"lightwave/internal/topo"
)

// testFleet builds a one-pod lab with a standing slice intent, plus an
// injector over it (no fabric).
func testFleet(t *testing.T) (*Lab, *FaultyBackend, *Injector) {
	t.Helper()
	lab, err := NewLab(42, memoryPods(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(lab.Close)
	if err := lab.Manager.SetSliceIntent("pod0", fleet.SliceIntent{
		Name: "job", Shape: topo.Shape{X: 4, Y: 4, Z: 4},
	}); err != nil {
		t.Fatal(err)
	}
	inj, err := NewInjector(Targets{Fleet: lab.Manager, Backends: lab.Backends})
	if err != nil {
		t.Fatal(err)
	}
	return lab, lab.Backends["pod0"], inj
}

func settle(t *testing.T, lab *Lab, what string, pred func(fleet.Status) bool) {
	t.Helper()
	if err := lab.Settle(what, pred); err != nil {
		t.Fatal(err)
	}
}

func TestInjectorPodLossQuarantinesThenRecovers(t *testing.T) {
	lab, b, inj := testFleet(t)
	settle(t, lab, "setup", allConverged)

	if err := inj.Apply(Event{Kind: KindPodLoss, Pod: "pod0"}); err != nil {
		t.Fatal(err)
	}
	settle(t, lab, "quarantine", Quarantined("pod0"))
	if !b.Failed() {
		t.Fatal("backend not failed after pod-loss")
	}
	st := inj.Status()
	if st.ActiveFaults != 1 || st.InjectedTotal != 1 {
		t.Fatalf("status = %+v, want 1 active / 1 injected", st)
	}

	if err := inj.Apply(Event{Kind: KindPodRestore, Pod: "pod0"}); err != nil {
		t.Fatal(err)
	}
	settle(t, lab, "recovery", Recovered("pod0"))
	if st := inj.Status(); st.ActiveFaults != 0 {
		t.Fatalf("active faults = %d after restore, want 0", st.ActiveFaults)
	}
	// Restoring a healthy pod is a no-op, not a double-count.
	if err := inj.Apply(Event{Kind: KindPodRestore, Pod: "pod0"}); err != nil {
		t.Fatal(err)
	}
	if st := inj.Status(); st.ActiveFaults != 0 {
		t.Fatalf("active faults = %d after redundant restore, want 0", st.ActiveFaults)
	}
}

func TestInjectorRejectsUnknownTargets(t *testing.T) {
	_, _, inj := testFleet(t)
	if err := inj.Apply(Event{Kind: KindPodLoss, Pod: "ghost"}); !errors.Is(err, ErrTarget) {
		t.Errorf("unknown pod: err = %v, want ErrTarget", err)
	}
	if err := inj.Apply(Event{Kind: KindOCSOutage, OCS: 0}); !errors.Is(err, ErrTarget) {
		t.Errorf("no fabric: err = %v, want ErrTarget", err)
	}
	if _, err := NewInjector(Targets{}); !errors.Is(err, ErrTarget) {
		t.Errorf("no fleet: err = %v, want ErrTarget", err)
	}
}

func TestInjectorTrunkBookkeeping(t *testing.T) {
	_, _, inj := testFleet(t)
	top, err := dcn.UniformMesh(4, 4)
	if err != nil {
		t.Fatal(err)
	}

	trunkDown(inj, [2]int{1, 0}) // reversed pair normalizes
	trunkDown(inj, [2]int{0, 1})
	deg := inj.Degraded(top)
	want := top.Links[0][1] - 2
	if want < 0 {
		want = 0
	}
	if deg.Links[0][1] != want || deg.Links[1][0] != want {
		t.Fatalf("degraded [0][1] = %d/%d, want %d", deg.Links[0][1], deg.Links[1][0], want)
	}
	if st := inj.Status(); st.TrunksDown != 2 {
		t.Fatalf("trunks down = %d, want 2", st.TrunksDown)
	}

	trunkUp(inj, [2]int{0, 1})
	trunkUp(inj, [2]int{0, 1})
	trunkUp(inj, [2]int{0, 1}) // extra lift is a no-op, never negative
	if st := inj.Status(); st.TrunksDown != 0 || st.ActiveFaults != 0 {
		t.Fatalf("status after lifts = %+v, want all clear", st)
	}
	if deg := inj.Degraded(top); deg.Links[0][1] != top.Links[0][1] {
		t.Fatalf("degraded [0][1] = %d after lifts, want %d", deg.Links[0][1], top.Links[0][1])
	}
}

func TestInjectorBERPolicy(t *testing.T) {
	_, _, inj := testFleet(t)
	alerts := &telemetry.MemorySink{}
	det := telemetry.NewDetector("ber", alerts)
	det.HardLimit = fec.KP4Threshold
	inj.t.Detector = det
	top, err := dcn.UniformMesh(4, 4)
	if err != nil {
		t.Fatal(err)
	}

	// Below the KP4 limit: observed, not drained.
	below := Event{Kind: KindBERDegrade, Trunk: [2]int{0, 1}, BER: 1e-6, DurationSeconds: 5}
	if err := inj.Apply(below); err != nil {
		t.Fatal(err)
	}
	if st := inj.Status(); st.TrunksDown != 0 {
		t.Fatalf("sub-limit BER drained a trunk: %+v", st)
	}
	if err := inj.Lift(below); err != nil {
		t.Fatal(err)
	}

	// At the limit: the trunk drains for the duration and the detector
	// posts a critical alert.
	at := Event{Kind: KindBERDegrade, Trunk: [2]int{0, 1}, BER: fec.KP4Threshold * 2, DurationSeconds: 5}
	if err := inj.Apply(at); err != nil {
		t.Fatal(err)
	}
	if deg := inj.Degraded(top); deg.Links[0][1] != top.Links[0][1]-1 {
		t.Fatalf("limit-exceeding BER did not drain the trunk")
	}
	found := false
	for _, a := range alerts.Alerts() {
		if a.Severity == telemetry.Critical {
			found = true
		}
	}
	if !found {
		t.Error("no critical alert for a BER beyond the hard limit")
	}
	if err := inj.Lift(at); err != nil {
		t.Fatal(err)
	}
	if st := inj.Status(); st.TrunksDown != 0 {
		t.Fatalf("trunk still down after lift: %+v", st)
	}
}

func TestInjectorApplyLiveLiftsTransients(t *testing.T) {
	_, _, inj := testFleet(t)
	ev := Event{Kind: KindCircuitFlap, Trunk: [2]int{2, 3}, DurationSeconds: 0.02}
	if err := inj.ApplyLive(ev); err != nil {
		t.Fatal(err)
	}
	if st := inj.Status(); st.TrunksDown != 1 {
		t.Fatalf("trunks down = %d right after ApplyLive, want 1", st.TrunksDown)
	}
	deadline := time.Now().Add(5 * time.Second)
	for inj.Status().TrunksDown != 0 {
		if time.Now().After(deadline) {
			t.Fatal("flap never lifted")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestInjectorOCSOutageHealCycle(t *testing.T) {
	h, err := newHarness(EvalConfig{}.withDefaults(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer h.lab.Close()
	settle(t, h.lab, "initial convergence", allConverged)
	intended := h.loop.Current()
	full := trunkTotal(h.inj.Degraded(intended))

	if err := h.inj.Apply(Event{Kind: KindOCSOutage, OCS: 1}); err != nil {
		t.Fatal(err)
	}
	settle(t, h.lab, "outage", fleet.Status.Settled)
	if got := trunkTotal(h.inj.Degraded(intended)); got >= full {
		t.Fatalf("degraded trunks = %d after outage, want < %d", got, full)
	}
	// Idempotent: a second outage of the same switch changes nothing.
	if err := h.inj.Apply(Event{Kind: KindOCSOutage, OCS: 1}); err != nil {
		t.Fatal(err)
	}

	// The owed heal re-places lost trunks on the surviving switches.
	if err := h.inj.Heal(intended); err != nil {
		t.Fatal(err)
	}
	if got := trunkTotal(h.inj.Degraded(intended)); got != full {
		t.Fatalf("degraded trunks = %d after heal, want %d", got, full)
	}

	if err := h.inj.Apply(Event{Kind: KindOCSRestore, OCS: 1}); err != nil {
		t.Fatal(err)
	}
	settle(t, h.lab, "restore", fleet.Status.Settled)
	if st := h.inj.Status(); st.DownSwitches != 0 {
		t.Fatalf("down switches = %d after restore, want 0", st.DownSwitches)
	}
}

func trunkTotal(t *dcn.Topology) int {
	n := 0
	for i := range t.Links {
		for j := i + 1; j < len(t.Links[i]); j++ {
			n += t.Links[i][j]
		}
	}
	return n
}

func TestPerturbObservedDerates(t *testing.T) {
	_, _, inj := testFleet(t)
	top, err := dcn.UniformMesh(4, 6)
	if err != nil {
		t.Fatal(err)
	}
	trunkDown(inj, [2]int{0, 1})
	deg := inj.Degraded(top)
	bps := [][]float64{
		{0, 100, 100, 100},
		{100, 0, 100, 100},
		{100, 100, 0, 100},
		{100, 100, 100, 0},
	}
	inj.PerturbObserved(bps, top, deg)
	wantFrac := float64(deg.Links[0][1]) / float64(top.Links[0][1])
	if bps[0][1] != 100*wantFrac || bps[1][0] != 100*wantFrac {
		t.Errorf("degraded pair rate = %g/%g, want %g", bps[0][1], bps[1][0], 100*wantFrac)
	}
	if bps[2][3] != 100 {
		t.Errorf("healthy pair rate = %g, want 100", bps[2][3])
	}
}

// trunkDown and trunkUp drive the injector's trunk bookkeeping the way a
// flap or a BER drain does, under the injector lock.
func trunkDown(in *Injector, pair [2]int) {
	in.mu.Lock()
	in.trunkDownLocked(pair)
	in.mu.Unlock()
}

func trunkUp(in *Injector, pair [2]int) {
	in.mu.Lock()
	in.trunkUpLocked(pair)
	in.mu.Unlock()
}
