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

// BenchmarkMaxMinRates times one progressive filling over the
// steady-state flow population. "from-zero" resumes at round 0 with every
// link marked and no flow changed, every round run: the full recompute. "arrival"
// times one arrival's resume on the path of the latest arrival, untimed
// departure in between. Both must report 0 allocs/op.
func BenchmarkMaxMinRates(b *testing.B) {
	b.Run("from-zero", func(b *testing.B) {
		s := benchEngine(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.stamp++
			s.beginFilling(s.rounds[0].next)
			for _, li := range s.links {
				s.markLink(li)
			}
			s.buildTree()
			s.finishFilling()
		}
	})
	b.Run("arrival", func(b *testing.B) {
		s := benchEngine(b)
		c := s.active[len(s.active)-1].class
		f := &flow{size: s.w.MeanFlowBytes, started: s.now}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.join(f, c)
			s.maxMinRates(c, +1)
			b.StopTimer()
			s.leave(f)
			s.maxMinRates(c, -1)
			b.StartTimer()
		}
	})
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
