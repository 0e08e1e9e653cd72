package dcn

import (
	"errors"
	"math"
	"testing"

	"lightwave/internal/par"
	"lightwave/internal/sim"
)

func TestSimulateRejectsDegenerateInputs(t *testing.T) {
	top, _ := UniformMesh(6, 15)
	base := func() Workload { return testWorkload(6, 0.2) }

	w := base()
	w.MeanFlowBytes = 0
	if _, err := Simulate(top, w, DefaultSimConfig()); !errors.Is(err, ErrDegenerate) {
		t.Errorf("zero MeanFlowBytes: err = %v, want ErrDegenerate", err)
	}

	w = base()
	w.Duration = 0
	if _, err := Simulate(top, w, DefaultSimConfig()); !errors.Is(err, ErrDegenerate) {
		t.Errorf("zero Duration: err = %v, want ErrDegenerate", err)
	}

	for _, bps := range []float64{0, math.Inf(1), math.NaN()} {
		cfg := DefaultSimConfig()
		cfg.TrunkBps = bps
		if _, err := Simulate(top, base(), cfg); !errors.Is(err, ErrDegenerate) {
			t.Errorf("TrunkBps %v: err = %v, want ErrDegenerate", bps, err)
		}
	}

	// All-zero demand matrix.
	w = base()
	w.Demand = UniformDemand(6, 0)
	if _, err := Simulate(top, w, DefaultSimConfig()); !errors.Is(err, ErrDegenerate) {
		t.Errorf("all-zero demand: err = %v, want ErrDegenerate", err)
	}

	// Non-finite and negative entries.
	for _, bad := range []float64{math.NaN(), math.Inf(1), -1e9} {
		w = base()
		w.Demand[2][3] = bad
		if _, err := Simulate(top, w, DefaultSimConfig()); !errors.Is(err, ErrDegenerate) {
			t.Errorf("demand entry %v: err = %v, want ErrDegenerate", bad, err)
		}
	}

	// Ragged demand row.
	w = base()
	w.Demand[1] = w.Demand[1][:4]
	if _, err := Simulate(top, w, DefaultSimConfig()); !errors.Is(err, ErrMismatch) {
		t.Errorf("ragged row: err = %v, want ErrMismatch", err)
	}
}

func TestSimulateRejectsUnroutablePair(t *testing.T) {
	// Block 5 is fully disconnected (its row and column of the trunk
	// matrix are zero) but still carries demand: without validation its
	// flows would ride a zero-capacity direct hop forever.
	top, err := UniformMesh(6, 15)
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < 6; b++ {
		top.Links[5][b] = 0
		top.Links[b][5] = 0
	}
	if _, err := Simulate(top, testWorkload(6, 0.2), DefaultSimConfig()); !errors.Is(err, ErrDegenerate) {
		t.Fatalf("unroutable pair: err = %v, want ErrDegenerate", err)
	}
}

func TestRoutableHelper(t *testing.T) {
	top, _ := UniformMesh(4, 9)
	if !top.Routable(0, 1) {
		t.Fatal("uniform mesh pair not routable")
	}
	top.Links[0][1] = 0
	if !top.Routable(0, 1) {
		t.Fatal("two-hop path not found")
	}
	for b := 0; b < 4; b++ {
		top.Links[0][b] = 0
	}
	if top.Routable(0, 1) {
		t.Fatal("isolated source reported routable")
	}
}

func TestLoadSweepMonotoneAndDeterministic(t *testing.T) {
	top, _ := UniformMesh(8, 21)
	demand := UniformDemand(8, 1e9)
	w := Workload{MeanFlowBytes: 2e9, Duration: 4}
	cfg := DefaultSimConfig()
	loads := []float64{0.1, 0.4, 0.8}

	prev := par.SetWorkers(1)
	defer par.SetWorkers(prev)
	base, err := loadSweep(top, 21, demand, w, cfg, loads)
	if err != nil {
		t.Fatal(err)
	}
	if len(base) != len(loads) {
		t.Fatalf("got %d points", len(base))
	}
	if base[0].Result.MeanFCT >= base[len(base)-1].Result.MeanFCT {
		t.Fatalf("FCT not increasing with load: %v vs %v",
			base[0].Result.MeanFCT, base[len(base)-1].Result.MeanFCT)
	}
	for _, workers := range []int{2, 8} {
		par.SetWorkers(workers)
		got, err := loadSweep(top, 21, demand, w, cfg, loads)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if got[i] != base[i] {
				t.Fatalf("workers=%d: point %d differs: %+v vs %+v", workers, i, got[i], base[i])
			}
		}
	}
}

func TestLoadSweepPointIndependence(t *testing.T) {
	// Adding a sweep point must not change the others: each point runs on
	// its own seed substream, not a shared arrival stream.
	top, _ := UniformMesh(6, 15)
	demand := UniformDemand(6, 1e9)
	w := Workload{MeanFlowBytes: 2e9, Duration: 3}
	cfg := DefaultSimConfig()
	a, err := loadSweep(top, 15, demand, w, cfg, []float64{0.2, 0.6})
	if err != nil {
		t.Fatal(err)
	}
	b, err := loadSweep(top, 15, demand, w, cfg, []float64{0.2, 0.4, 0.6})
	if err != nil {
		t.Fatal(err)
	}
	if a[0] != b[0] {
		t.Fatal("point 0 changed when a point was inserted after it")
	}
	if a[1].Result != b[2].Result {
		// Same load, same index-derived seed? Index differs (1 vs 2), so
		// results may differ — but the load labels must survive.
		if a[1].Load != b[2].Load {
			t.Fatal("load labels corrupted")
		}
	}
}

func TestLoadSweepPropagatesErrors(t *testing.T) {
	top, _ := UniformMesh(6, 15)
	w := Workload{MeanFlowBytes: 0, Duration: 3} // degenerate
	if _, err := loadSweep(top, 15, UniformDemand(6, 1e9), w, DefaultSimConfig(), []float64{0.5}); !errors.Is(err, ErrDegenerate) {
		t.Fatalf("err = %v, want ErrDegenerate", err)
	}
}

func TestCompareTopologiesDeterministicAcrossWorkerCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("reference experiment is heavyweight")
	}
	prev := par.SetWorkers(1)
	defer par.SetWorkers(prev)
	base, err := CompareTopologies(ReferenceExperiment())
	if err != nil {
		t.Fatal(err)
	}
	par.SetWorkers(4)
	got, err := CompareTopologies(ReferenceExperiment())
	if err != nil {
		t.Fatal(err)
	}
	if got != base {
		t.Fatalf("parallel comparison diverged:\n%+v\n%+v", got, base)
	}
}

// loadPoint is one offered-load sweep point of the flow-level simulator.
type loadPoint struct {
	// Load is the fraction of total fabric capacity offered.
	Load   float64
	Result SimResult
}

// loadSweep runs the flow-level simulator at each offered-load fraction,
// scaling the demand shape to that share of the fabric's directed
// capacity (t.Blocks × uplinks trunks). Sweep points run in parallel on
// the worker pool while each point's event loop stays sequential; point i
// uses seed substream (cfg.Seed, i), so the sweep is deterministic at any
// worker count and inserting a point never perturbs the others' arrival
// processes. It is the harness the golden sweep rows of golden_test.go
// (DESIGN.md §9) run Simulate through; nothing outside tests sweeps load.
func loadSweep(t *Topology, uplinks int, demand [][]float64, w Workload, cfg SimConfig, loads []float64) ([]loadPoint, error) {
	type out struct {
		res SimResult
		err error
	}
	outs := par.Sweep("dcn_load_sweep", loads, func(i int, load float64) out {
		wp := w
		wp.Demand = scaleDemand(demand, t.Blocks, uplinks, cfg.TrunkBps, load)
		cp := cfg
		cp.Seed = sim.SubstreamSeed(cfg.Seed, uint64(i))
		r, err := Simulate(t, wp, cp)
		return out{res: r, err: err}
	})
	pts := make([]loadPoint, len(loads))
	for i, o := range outs {
		if o.err != nil {
			return nil, o.err
		}
		pts[i] = loadPoint{Load: loads[i], Result: o.res}
	}
	return pts, nil
}
