package sched

import (
	"testing"

	"lightwave/internal/sim"
)

// TestUtilizationAdvantage reproduces §4.2.4: the reconfigurable fabric
// sustains >98% pod utilization under a saturating mixed-size job stream,
// clearly above the contiguous-placement baseline.
func TestUtilizationAdvantage(t *testing.T) {
	reconf, err := Simulate(FullPod(), Reconfigurable{}, ProductionMix(), ReferenceConfig())
	if err != nil {
		t.Fatal(err)
	}
	contig, err := Simulate(FullPod(), Contiguous{}, ProductionMix(), ReferenceConfig())
	if err != nil {
		t.Fatal(err)
	}
	if reconf.Utilization < 0.98 {
		t.Errorf("reconfigurable utilization = %.3f, want > 0.98", reconf.Utilization)
	}
	if contig.Utilization >= reconf.Utilization-0.02 {
		t.Errorf("contiguous %.3f not clearly below reconfigurable %.3f",
			contig.Utilization, reconf.Utilization)
	}
	if reconf.Completed <= contig.Completed {
		t.Errorf("reconfigurable completed %d <= contiguous %d", reconf.Completed, contig.Completed)
	}
}

func TestSimulateValidation(t *testing.T) {
	mix := ProductionMix()
	if _, err := Simulate(FullPod(), Reconfigurable{}, mix, SimConfig{Duration: 0}); err == nil {
		t.Fatal("zero duration accepted")
	}
	bad := mix
	bad.Sizes = nil
	if _, err := Simulate(FullPod(), Reconfigurable{}, bad, SimConfig{Duration: 10}); err == nil {
		t.Fatal("empty mix accepted")
	}
	bad2 := mix
	bad2.ArrivalRate = 0
	if _, err := Simulate(FullPod(), Reconfigurable{}, bad2, SimConfig{Duration: 10}); err == nil {
		t.Fatal("zero arrival rate accepted")
	}
}

func TestSimulateDeterministic(t *testing.T) {
	cfg := SimConfig{Duration: 50000, Seed: 3}
	a, err := Simulate(FullPod(), Reconfigurable{}, ProductionMix(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := Simulate(FullPod(), Reconfigurable{}, ProductionMix(), cfg)
	if a.Completed != b.Completed || a.Utilization != b.Utilization {
		t.Fatal("same seed, different stats")
	}
}

func TestLightLoadLowWait(t *testing.T) {
	mix := ProductionMix()
	mix.ArrivalRate = 0.001 // far below capacity
	st, err := Simulate(FullPod(), Reconfigurable{}, mix, SimConfig{Duration: 100000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if st.MeanWait > mix.MeanDuration/10 {
		t.Fatalf("light-load wait %.0f too high", st.MeanWait)
	}
	if st.Utilization > 0.5 {
		t.Fatalf("light-load utilization %.2f too high", st.Utilization)
	}
}

func TestFailureSwapKeepsJobsAlive(t *testing.T) {
	mix := ProductionMix()
	cfg := SimConfig{Duration: 100000, Seed: 2, CubeMTBF: 50000, MeanRepair: 5000}
	reconf, err := Simulate(FullPod(), Reconfigurable{}, mix, cfg)
	if err != nil {
		t.Fatal(err)
	}
	contig, err := Simulate(FullPod(), Contiguous{}, mix, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The reconfigurable fabric swaps spare cubes in; the static fabric
	// loses the slice (§4.2.2: it "can swap out a bad elemental cube
	// whereas a static configuration cannot").
	if reconf.Swaps == 0 {
		t.Error("no cube swaps recorded under failure injection")
	}
	if contig.Swaps != 0 {
		t.Error("contiguous policy should never swap")
	}
	if contig.Preempted == 0 {
		t.Error("contiguous policy lost no jobs despite failures")
	}
	if reconf.Preempted > contig.Preempted {
		t.Errorf("reconfigurable preempted %d > contiguous %d", reconf.Preempted, contig.Preempted)
	}
}

func TestUtilizationBounded(t *testing.T) {
	st, err := Simulate(FullPod(), Reconfigurable{}, ProductionMix(), SimConfig{Duration: 20000, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if st.Utilization < 0 || st.Utilization > 1 {
		t.Fatalf("utilization = %v", st.Utilization)
	}
}

// TestSimulateGolden pins failure-free Simulate output to the exact
// float64 values the pre-Scheduler event loop produced (recorded at the
// commit before Simulate became a stream driver over Scheduler): the
// offline run and the scheduler are one policy only if these never move.
// The rows with a cube MTBF were recorded at the commit before the
// scheduler's scan began skipping sizes it had just been refused, and hold
// the skip to the full scan on the failure, repair, swap and preemption
// paths.
func TestSimulateGolden(t *testing.T) {
	type row struct {
		placer     string
		want       Stats
		migrations int
	}
	cases := []struct {
		duration     float64
		backfill     int
		seed         uint64
		mtbf, repair float64
		rows         []row
	}{
		{300000, 64, 5, 0, 0, []row{
			{"reconfigurable", Stats{Utilization: 0.9828233303112345, Completed: 4096, MeanWait: 74629.72385038513, Started: 4107, Running: 11}, 0},
			{"contiguous", Stats{Utilization: 0.9445894268130154, Completed: 3995, MeanWait: 78760.97269036909, Started: 4011, Running: 16}, 0},
			{"contiguous+defrag", Stats{Utilization: 0.9833061237260331, Completed: 4155, MeanWait: 74804.98554333439, Started: 4171, Running: 16}, 9687},
		}},
		// The bench's sim_sched configuration.
		{20000, 64, 5, 0, 0, []row{
			{"reconfigurable", Stats{Utilization: 0.951267259189948, Completed: 408, MeanWait: 1572.459223878146, Started: 426, Running: 18}, 0},
			{"contiguous", Stats{Utilization: 0.8941047792407198, Completed: 384, MeanWait: 1533.9428101477138, Started: 400, Running: 16}, 0},
			{"contiguous+defrag", Stats{Utilization: 0.951267259189948, Completed: 408, MeanWait: 1572.459223878146, Started: 426, Running: 18}, 1066},
		}},
		// Another seed with no backfill, where compaction changes the run.
		{20000, 1, 9, 0, 0, []row{
			{"reconfigurable", Stats{Utilization: 0.9140773124778627, Completed: 242, MeanWait: 4822.466472292967, Started: 254, Running: 12}, 0},
			{"contiguous", Stats{Utilization: 0.7247863658454721, Completed: 209, MeanWait: 5617.745967981972, Started: 214, Running: 5}, 0},
			{"contiguous+defrag", Stats{Utilization: 0.9133068960048831, Completed: 242, MeanWait: 4829.282858140917, Started: 254, Running: 12}, 1372},
		}},
		// Cube failures and repairs under the bench's window.
		{20000, 64, 5, 50000, 5000, []row{
			{"reconfigurable", Stats{Utilization: 0.8927182968405434, Completed: 403, MeanWait: 1248.9748869357447, Preempted: 15, Swaps: 10, Started: 433, Running: 15}, 0},
			{"contiguous", Stats{Utilization: 0.798198108622717, Completed: 376, MeanWait: 1268.563761839938, Preempted: 21, Started: 411, Running: 14}, 0},
			{"contiguous+defrag", Stats{Utilization: 0.8486287095517555, Completed: 408, MeanWait: 903.8238171050415, Preempted: 22, Started: 439, Running: 9}, 2988},
		}},
		// Heavy failures under the default window (6).
		{50000, 0, 11, 20000, 4000, []row{
			{"reconfigurable", Stats{Utilization: 0.7835701113113795, Completed: 550, MeanWait: 15101.057454663813, Preempted: 28, Swaps: 86, Started: 588, Running: 10}, 0},
			{"contiguous", Stats{Utilization: 0.17069477228714905, Completed: 133, MeanWait: 6755.269937104706, Preempted: 22, Started: 155}, 0},
			{"contiguous+defrag", Stats{Utilization: 0.1542129307307981, Completed: 130, MeanWait: 6215.645216523767, Preempted: 25, Started: 155}, 990},
		}},
		// Rare failures, default repair time.
		{30000, 16, 2, 100000, 0, []row{
			{"reconfigurable", Stats{Utilization: 0.950473926428208, Completed: 435, MeanWait: 6556.0374896696785, Preempted: 6, Swaps: 2, Started: 452, Running: 11}, 0},
			{"contiguous", Stats{Utilization: 0.8496388561929245, Completed: 396, MeanWait: 6281.905883618677, Preempted: 5, Started: 409, Running: 8}, 0},
			{"contiguous+defrag", Stats{Utilization: 0.9214779425912244, Completed: 421, MeanWait: 6357.336080457375, Preempted: 8, Started: 447, Running: 18}, 1915},
		}},
	}
	for _, c := range cases {
		cfg := SimConfig{Duration: c.duration, Seed: c.seed, BackfillWindow: c.backfill, CubeMTBF: c.mtbf, MeanRepair: c.repair}
		for _, r := range c.rows {
			migrations := 0
			placer := map[string]Placer{
				"reconfigurable":    Reconfigurable{},
				"contiguous":        Contiguous{},
				"contiguous+defrag": ContiguousWithDefrag{Migrations: &migrations},
			}[r.placer]
			got, err := Simulate(FullPod(), placer, ProductionMix(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got != r.want || migrations != r.migrations {
				t.Errorf("duration %v backfill %d seed %d mtbf %v %s:\n got %+v migrations %d\nwant %+v migrations %d",
					c.duration, c.backfill, c.seed, c.mtbf, r.placer, got, migrations, r.want, r.migrations)
			}
		}
	}
}

// TestJobMixSampleDrawOrder holds Sample to the sampler every job stream
// used to carry inline: one uniform draw for the size (scaled by the
// weight total, falling through to the last size), then one exponential
// draw for the duration. Reports pinned by digest depend on that order.
func TestJobMixSampleDrawOrder(t *testing.T) {
	mixes := []JobMix{
		ProductionMix(),
		// Weights that do not sum to one, and a zero weight.
		{Sizes: []int{2, 4, 64}, Weights: []float64{3, 0, 0.5}, MeanDuration: 40, ArrivalRate: 1},
	}
	for _, mix := range mixes {
		if err := mix.Validate(); err != nil {
			t.Fatal(err)
		}
		got, ref := sim.NewRand(11), sim.NewRand(11)
		total := 0.0
		for _, w := range mix.Weights {
			total += w
		}
		for n := 0; n < 2000; n++ {
			x := ref.Float64() * total
			size := mix.Sizes[len(mix.Sizes)-1]
			for i, w := range mix.Weights {
				if x < w {
					size = mix.Sizes[i]
					break
				}
				x -= w
			}
			want := JobSpec{Cubes: size, DurationSeconds: ref.ExpFloat64() * mix.MeanDuration}
			if spec := mix.Sample(got); spec != want {
				t.Fatalf("draw %d: %+v, want %+v", n, spec, want)
			}
		}
	}
}

func TestJobMixValidate(t *testing.T) {
	ok := ProductionMix()
	bad := map[string]func(*JobMix){
		"no sizes":                func(m *JobMix) { m.Sizes, m.Weights = nil, nil },
		"more weights than sizes": func(m *JobMix) { m.Weights = append(m.Weights, 0.1) },
		"zero-cube size":          func(m *JobMix) { m.Sizes[0] = 0 },
		"negative weight":         func(m *JobMix) { m.Weights[0] = -1 },
		"no weight at all":        func(m *JobMix) { m.Weights = make([]float64, len(m.Sizes)) },
		"zero arrival rate":       func(m *JobMix) { m.ArrivalRate = 0 },
		"negative mean duration":  func(m *JobMix) { m.MeanDuration = -1 },
	}
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
	for name, mutate := range bad {
		m := ProductionMix()
		mutate(&m)
		if m.Validate() == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
