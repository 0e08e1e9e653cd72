package te

import (
	"sync"
	"testing"

	"lightwave/internal/dcn"
	"lightwave/internal/fleet"
	"lightwave/internal/ocs"
	"lightwave/internal/telemetry"
)

func testLoopConfig() Config {
	return Config{
		Blocks: 8, Uplinks: 14, TrunkBps: 50e9,
		EpochSeconds:   1,
		CooldownEpochs: 2,
		Predictor:      PredictorConfig{Warmup: 2},
	}
}

// feed integrates one rate matrix and steps the loop.
func feed(t *testing.T, l *Loop, m [][]float64) *Plan {
	t.Helper()
	plan, err := l.Advance(m)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

func TestLoopConvergesAndRespectsCooldown(t *testing.T) {
	old := Registry()
	defer SetRegistry(old)
	reg := telemetry.NewRegistry()
	SetRegistry(reg)

	l, err := NewLoop(testLoopConfig())
	if err != nil {
		t.Fatal(err)
	}
	demand := skewed(8, [2]int{0, 1}, [2]int{2, 3}, [2]int{4, 5})
	var reconfigEpochs []int
	for e := 0; e < 12; e++ {
		plan := feed(t, l, demand)
		if plan.Reconfigure {
			reconfigEpochs = append(reconfigEpochs, e)
		}
	}
	st := l.Status()
	if st.Reconfigs == 0 {
		t.Fatalf("loop never reconfigured on steady skew: %+v", st)
	}
	for i := 1; i < len(reconfigEpochs); i++ {
		if d := reconfigEpochs[i] - reconfigEpochs[i-1]; d < 2 {
			t.Errorf("reconfigs %d epochs apart, cooldown is 2", d)
		}
	}
	// Once converged on steady demand, the loop must go quiet: the last
	// epochs hold because the topology is already optimal.
	lastPlan := feed(t, l, demand)
	if lastPlan.Reconfigure {
		t.Error("loop still reconfiguring after convergence on steady demand")
	}
	if st.Epoch != 12 {
		t.Errorf("epoch = %d, want 12", st.Epoch)
	}
	if st.MinResidualFraction < 0.75-1e-9 {
		t.Errorf("min residual %g below default floor 0.75", st.MinResidualFraction)
	}
	if got := reg.Counter("te_epochs_total").Value(); got != 13 {
		t.Errorf("te_epochs_total = %d, want 13", got)
	}
	if got := reg.Counter("te_reconfigs_total").Value(); got != int64(st.Reconfigs) {
		t.Errorf("te_reconfigs_total = %d, status says %d", got, st.Reconfigs)
	}
}

// fleetLoop returns a loop applying through a FleetApplier, its DCN
// fabric seeded with the loop's initial mesh and registered as the "dcn"
// pod of a fresh manager.
func fleetLoop(t *testing.T) (*Loop, *dcn.Fabric, *fleet.Manager) {
	t.Helper()
	fabric, err := dcn.NewFabric(8, 16, ocs.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	m := fleet.NewManager(fleet.Options{})
	t.Cleanup(m.Close)
	ap, err := NewFleetApplier(m, "dcn", fabric)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testLoopConfig()
	cfg.Applier = ap
	l, err := NewLoop(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fabric.Program(l.Current()); err != nil {
		t.Fatal(err)
	}
	return l, fabric, m
}

func TestLoopFabricApplierKeepsHardwareInSync(t *testing.T) {
	l, fabric, _ := fleetLoop(t)
	demand := skewed(8, [2]int{0, 1}, [2]int{2, 3})
	for e := 0; e < 10; e++ {
		feed(t, l, demand)
		if !fabric.Matches(l.Current()) {
			t.Fatalf("epoch %d: hardware diverged from the loop's logical topology", e)
		}
	}
	if l.Status().Reconfigs == 0 {
		t.Fatal("loop never exercised the applier")
	}
}

func TestFleetApplierDrainsThroughManager(t *testing.T) {
	l, fabric, m := fleetLoop(t)
	sub := m.Subscribe(256)
	demand := skewed(8, [2]int{0, 1}, [2]int{2, 3})
	for e := 0; e < 8; e++ {
		feed(t, l, demand)
	}
	st := l.Status()
	if st.Reconfigs == 0 {
		t.Fatal("loop never reconfigured")
	}
	if !fabric.Matches(l.Current()) {
		t.Fatal("hardware diverged from the loop's logical topology")
	}
	// Every reconfiguration stage must have surfaced drain/undrain events
	// on the manager's stream, and drains must be balanced.
	drains, undrains := 0, 0
	for {
		select {
		case ev := <-sub.Events():
			switch ev.Type {
			case fleet.EventDrained:
				drains++
			case fleet.EventUndrained:
				undrains++
			}
			continue
		default:
		}
		break
	}
	if drains == 0 {
		t.Fatal("no OCS drain events reached the fleet manager")
	}
	if drains != undrains {
		t.Errorf("unbalanced drains: %d drains, %d undrains", drains, undrains)
	}
	// Nothing should be left drained.
	ps, err := m.PodStatus("dcn")
	if err != nil {
		t.Fatal(err)
	}
	if len(ps.DrainedOCS) != 0 {
		t.Errorf("OCSes still drained after apply: %v", ps.DrainedOCS)
	}
	if ps.Circuits == 0 {
		t.Error("pod status reports no circuits")
	}
	// The DCN pod must reject slice intents.
	if err := m.SetSliceIntent("dcn", fleet.SliceIntent{}); err == nil {
		t.Error("empty slice intent accepted")
	}
}

func TestFleetApplierRacesStatusReads(t *testing.T) {
	// Status serving reads the dcn pod's circuit count while a stage
	// reprograms the same switches; the fabric's lock orders the two
	// (run under -race).
	l, _, m := fleetLoop(t)
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			for _, ps := range m.Status().Pods {
				if ps.Name == "dcn" && ps.Circuits == 0 {
					t.Error("status read an empty dcn pod")
					return
				}
			}
		}
	}()
	demand := skewed(8, [2]int{0, 1}, [2]int{2, 3})
	for e := 0; e < 8; e++ {
		feed(t, l, demand)
	}
	close(done)
	wg.Wait()
	if l.Status().Reconfigs == 0 {
		t.Fatal("loop never reconfigured")
	}
}
