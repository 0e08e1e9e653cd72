package dcn

import (
	"testing"

	"lightwave/internal/ocs"
)

func BenchmarkEngineer(b *testing.B) {
	demand := SkewedDemand(16, 1e9, 8, 50, 1)
	for i := 0; i < b.N; i++ {
		if _, err := Engineer(16, 40, demand); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecompose(b *testing.B) {
	top, err := Engineer(16, 40, SkewedDemand(16, 1e9, 8, 50, 1))
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if got := top.Decompose(); len(got) == 0 {
			b.Fatal("no matchings")
		}
	}
}

func BenchmarkProgramFabric(b *testing.B) {
	top, err := Engineer(12, 22, SkewedDemand(12, 1e9, 6, 40, 2))
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		f, err := NewFabric(12, 30, ocs.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := f.Program(top); err != nil {
			b.Fatal(err)
		}
	}
}

// benchEngine builds a warmed-up simulator engine on the reference
// experiment's FCT-load workload: the same per-event work that dominates
// the root BenchmarkFigures/dcn, with an effectively unbounded horizon so
// the event loop never terminates inside the timed region.
func benchEngine(b *testing.B) *simEngine {
	b.Helper()
	blocks, uplinks, demand, w, cfg := ReferenceExperiment()
	top, err := UniformMesh(blocks, uplinks)
	if err != nil {
		b.Fatal(err)
	}
	w.Demand = scaleDemand(demand, blocks, uplinks, cfg.TrunkBps, fctLoad)
	w.Duration = 1e12
	s, err := newSimEngine(top, w, cfg)
	if err != nil {
		b.Fatal(err)
	}
	// Warm the pools and per-link scratch to their steady-state sizes so
	// the timed region measures the allocation-free regime.
	for i := 0; i < 2000; i++ {
		if !s.step() {
			b.Fatal("horizon exhausted during warm-up")
		}
	}
	return s
}

// BenchmarkFlowSimEvents measures the per-event cost of the flow
// simulator's hot loop (arrival/completion handling plus the max-min
// recompute) in steady state. allocs/op must stay at ~0: the event loop's
// contract is that it does not allocate once warm.
func BenchmarkFlowSimEvents(b *testing.B) {
	s := benchEngine(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !s.step() {
			b.Fatal("horizon exhausted")
		}
	}
}

// BenchmarkMaxMinRates measures one full max-min fair-share recompute over
// the steady-state active flow population. It must report 0 allocs/op:
// the epoch-stamped link arrays make the recompute allocation-free.
func BenchmarkMaxMinRates(b *testing.B) {
	s := benchEngine(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.maxMinRates()
	}
}

func BenchmarkFluidThroughput(b *testing.B) {
	top, _ := UniformMesh(12, 33)
	demand := SkewedDemand(12, 0.5e9, 12, 300, 7)
	for i := 0; i < b.N; i++ {
		if got := AchievedThroughput(top, demand, 50e9); got <= 0 {
			b.Fatal("no throughput")
		}
	}
}
