package sched

import (
	"errors"
	"testing"
)

// BenchmarkSchedulerHotPath measures the steady-state submit/advance cycle
// (mirror-only): one 1-cube job arrives per virtual second with a 50s
// runtime, so the pod sits at ~50 running jobs with a completion and a
// placement per iteration. The Makefile's bench-sched target commits the
// numbers to BENCH_sched.json; the gate is a few allocs/op.
func BenchmarkSchedulerHotPath(b *testing.B) {
	s, err := NewScheduler(SchedulerConfig{Pods: []string{"pod0"}})
	if err != nil {
		b.Fatal(err)
	}
	t := 0.0
	// Prime to steady state.
	for i := 0; i < 128; i++ {
		t++
		if err := s.AdvanceTo(t); err != nil {
			b.Fatal(err)
		}
		if _, _, err := s.Submit(JobSpec{Cubes: 1, DurationSeconds: 50}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t++
		if err := s.AdvanceTo(t); err != nil {
			b.Fatal(err)
		}
		if _, _, err := s.Submit(JobSpec{Cubes: 1, DurationSeconds: 50}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlacementDecision measures one placement decision per policy on
// a half-loaded fragmented pod — the latency the sched_place_seconds
// distribution tracks online.
func BenchmarkPlacementDecision(b *testing.B) {
	fragment := func() *Pod {
		p := FullPod()
		r := Reconfigurable{}
		for j := 0; j < 32; j++ {
			if _, err := r.Place(p, j, 2); err != nil {
				b.Fatal(err)
			}
		}
		for j := 0; j < 32; j += 2 {
			p.Release(j)
		}
		return p
	}
	for _, tc := range []struct {
		name   string
		placer Placer
	}{
		{"reconfigurable", Reconfigurable{}},
		{"contiguous", Contiguous{}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			p := fragment()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := tc.placer.Place(p, 1000, 4); err != nil {
					b.Fatal(err)
				}
				p.Release(1000)
			}
		})
	}
}

// BenchmarkSimulatePass is the offline stage of the ledger's sim_sched
// workload (bench/simload.go): the three placers over the reference stream
// at a 20 000 s horizon.
func BenchmarkSimulatePass(b *testing.B) {
	mix, cfg := ProductionMix(), ReferenceConfig()
	cfg.Duration = 20000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		migrations := 0
		for _, placer := range []Placer{Reconfigurable{}, Contiguous{}, ContiguousWithDefrag{Migrations: &migrations}} {
			if _, err := Simulate(FullPod(), placer, mix, cfg); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// TestPlaceAllocations is the allocation guard on the placement decision:
// a refusal allocates nothing (its wording is deferred to Error), an
// acceptance exactly the cube list it returns.
func TestPlaceAllocations(t *testing.T) {
	for _, placer := range []Placer{Reconfigurable{}, Contiguous{}} {
		p := checkerboard(t) // 32 free cubes, no two adjacent
		ask := 40
		if placer == (Contiguous{}) {
			ask = 8 // walks every 8-cube box in the table
		}
		var err error
		if n := testing.AllocsPerRun(100, func() { _, err = placer.Place(p, 7, ask) }); n != 0 || !errors.Is(err, ErrNotPlaced) {
			t.Errorf("%s: refused Place allocated %v times (err %v), want 0", placer.Name(), n, err)
		}
		empty := FullPod()
		if n := testing.AllocsPerRun(100, func() {
			var ids []int
			ids, err = placer.Place(empty, 7, 8)
			for _, c := range ids {
				empty.setFree(c)
			}
		}); n != 1 || err != nil {
			t.Errorf("%s: accepted Place allocated %v times (err %v), want 1", placer.Name(), n, err)
		}
	}
}
