package chaos

import (
	"testing"

	"lightwave/internal/fleet"
	"lightwave/internal/topo"
)

// BenchmarkScenarioReplay measures fault-schedule throughput through the
// injector against a live fleet control plane: events per second of
// pod-loss/restore cycles plus trunk transients, the dominant cost of a
// long random-scenario replay (the flow simulations are benchmarked in
// internal/dcn).
func BenchmarkScenarioReplay(b *testing.B) {
	lab, err := NewLab(42, memoryPods(1), nil)
	if err != nil {
		b.Fatal(err)
	}
	defer lab.Close()
	if err := lab.Manager.SetSliceIntent("pod0", fleet.SliceIntent{
		Name: "job", Shape: topo.Shape{X: 4, Y: 4, Z: 4},
	}); err != nil {
		b.Fatal(err)
	}
	inj, err := NewInjector(Targets{Fleet: lab.Manager, Backends: lab.Backends})
	if err != nil {
		b.Fatal(err)
	}
	s := Scenario{Name: "bench", HorizonSeconds: 600, Events: []Event{
		{At: 1, Kind: KindCircuitFlap, Trunk: [2]int{0, 1}, DurationSeconds: 10},
		{At: 6, Kind: KindCircuitFlap, Trunk: [2]int{2, 3}, DurationSeconds: 10},
		{At: 11, Kind: KindCircuitFlap, Trunk: [2]int{1, 2}, DurationSeconds: 10},
		{At: 16, Kind: KindCircuitFlap, Trunk: [2]int{0, 3}, DurationSeconds: 10},
		{At: 2, Kind: KindBERDegrade, Trunk: [2]int{0, 2}, BER: 5e-4, DurationSeconds: 10},
		{At: 3, Kind: KindBERDegrade, Trunk: [2]int{1, 3}, BER: 1e-6, DurationSeconds: 10},
	}}
	acts := s.actions()
	b.ReportMetric(float64(len(acts)), "events/replay")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, a := range acts {
			if a.lift {
				if err := inj.Lift(a.ev); err != nil {
					b.Fatal(err)
				}
			} else if err := inj.Apply(a.ev); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkInjectorHotPath pins the trunk fault path (the //lwlint:hotpath
// trunkDownLocked / trunkUpLocked pair every flap, BER drain and lift
// takes) at zero allocations: counters are pre-resolved at construction,
// bookkeeping reuses map slots, so storms of flaps cost no garbage.
func BenchmarkInjectorHotPath(b *testing.B) {
	m := fleet.NewManager(fleet.Options{Seed: 42})
	defer m.Close()
	inj, err := NewInjector(Targets{Fleet: m})
	if err != nil {
		b.Fatal(err)
	}
	pair := [2]int{3, 5}
	trunkDown(inj, pair) // warm the map slot
	trunkUp(inj, pair)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trunkDown(inj, pair)
		trunkUp(inj, pair)
	}
}
