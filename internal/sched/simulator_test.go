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
// The rows with a cube MTBF were recorded when Simulate began drawing its
// faults from the stream's fault substream (sim.Substream(Seed, 100))
// instead of its arrival generator; they hold the failure, repair, swap
// and preemption paths.
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
			{"reconfigurable", Stats{Utilization: 0.8856595785155817, Completed: 395, MeanWait: 1610.640245488513, Preempted: 12, Swaps: 8, Started: 424, Running: 17}, 0},
			{"contiguous", Stats{Utilization: 0.7370804754732859, Completed: 331, MeanWait: 1459.658442476379, Preempted: 15, Started: 360, Running: 14}, 0},
			{"contiguous+defrag", Stats{Utilization: 0.8563991840137689, Completed: 366, MeanWait: 1494.9300185144775, Preempted: 20, Started: 404, Running: 18}, 2396},
		}},
		// Heavy failures under the default window (6).
		{50000, 0, 11, 20000, 4000, []row{
			{"reconfigurable", Stats{Utilization: 0.7661017448120815, Completed: 520, MeanWait: 13972.51853798423, Preempted: 33, Swaps: 96, Started: 565, Running: 12}, 0},
			{"contiguous", Stats{Utilization: 0.24401529149292858, Completed: 196, MeanWait: 12075.48054840304, Preempted: 38, Started: 239, Running: 5}, 0},
			{"contiguous+defrag", Stats{Utilization: 0.24938610899197247, Completed: 202, MeanWait: 11723.604362986918, Preempted: 33, Started: 239, Running: 4}, 1698},
		}},
		// Rare failures, default repair time.
		{30000, 16, 2, 100000, 0, []row{
			{"reconfigurable", Stats{Utilization: 0.9152609580015911, Completed: 430, MeanWait: 5411.432628555033, Preempted: 4, Swaps: 13, Started: 440, Running: 6}, 0},
			{"contiguous", Stats{Utilization: 0.7735619570392589, Completed: 376, MeanWait: 5560.237874562779, Preempted: 12, Started: 392, Running: 4}, 0},
			{"contiguous+defrag", Stats{Utilization: 0.8338948039162405, Completed: 414, MeanWait: 5106.3315438161235, Preempted: 15, Started: 432, Running: 3}, 2848},
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
