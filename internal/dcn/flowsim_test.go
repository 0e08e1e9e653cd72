package dcn

import (
	"errors"
	"math"
	"testing"
	"time"
)

func testWorkload(blocks int, loadFactor float64) Workload {
	// Offered load scaled to a fraction of a trunk per pair.
	return Workload{
		Demand:        UniformDemand(blocks, loadFactor*50e9),
		MeanFlowBytes: 2e9,
		Duration:      5,
	}
}

func TestSimulateCompletesFlows(t *testing.T) {
	top, _ := UniformMesh(8, 21)
	res, err := Simulate(top, testWorkload(8, 0.3), DefaultSimConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.CompletedFlows < 100 {
		t.Fatalf("only %d flows completed", res.CompletedFlows)
	}
	if res.MeanFCT <= 0 || res.ThroughputBps <= 0 {
		t.Fatalf("result = %+v", res)
	}
	if res.P99FCT < res.MedianFCT {
		t.Fatal("P99 below median")
	}
}

func TestSimulateDeterministicWithSeed(t *testing.T) {
	top, _ := UniformMesh(6, 15)
	w := testWorkload(6, 0.2)
	a, err := Simulate(top, w, DefaultSimConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, _ := Simulate(top, w, DefaultSimConfig())
	if a.CompletedFlows != b.CompletedFlows || a.MeanFCT != b.MeanFCT {
		t.Fatal("same seed produced different results")
	}
}

// TestSimulateErrors requires Simulate to refuse inputs it cannot run,
// each within a deadline: before non-finite mean flow sizes and durations
// were refused, a NaN or +Inf one looped forever or returned all zeros.
func TestSimulateErrors(t *testing.T) {
	top, _ := UniformMesh(6, 15)
	for _, c := range []struct {
		name string
		w    func(w *Workload)
		want error
	}{
		{"mismatched block count", func(w *Workload) { *w = testWorkload(8, 0.2) }, ErrMismatch},
		{"zero flow size", func(w *Workload) { w.MeanFlowBytes = 0 }, ErrDegenerate},
		{"empty demand", func(w *Workload) { *w = testWorkload(6, 0) }, ErrDegenerate},
		{"NaN flow size", func(w *Workload) { w.MeanFlowBytes = math.NaN() }, ErrDegenerate},
		{"infinite flow size", func(w *Workload) { w.MeanFlowBytes = math.Inf(1) }, ErrDegenerate},
		{"NaN duration", func(w *Workload) { w.Duration = math.NaN() }, ErrDegenerate},
		{"infinite duration", func(w *Workload) { w.Duration = math.Inf(1) }, ErrDegenerate},
	} {
		t.Run(c.name, func(t *testing.T) {
			w := testWorkload(6, 0.2)
			c.w(&w)
			done := make(chan error, 1)
			go func() {
				_, err := Simulate(top, w, DefaultSimConfig())
				done <- err
			}()
			select {
			case err := <-done:
				if !errors.Is(err, c.want) {
					t.Fatalf("err = %v, want %v", err, c.want)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("Simulate did not return")
			}
		})
	}
}

func TestFCTScalesWithLoad(t *testing.T) {
	top, _ := UniformMesh(8, 21)
	light, err := Simulate(top, testWorkload(8, 0.1), DefaultSimConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Each pair has 3 trunks, so a per-pair load factor of 2 (two trunks'
	// worth of offered demand) forces real sharing.
	heavy, err := Simulate(top, testWorkload(8, 2.0), DefaultSimConfig())
	if err != nil {
		t.Fatal(err)
	}
	if heavy.MeanFCT <= light.MeanFCT {
		t.Fatalf("FCT did not grow with load: %v vs %v", light.MeanFCT, heavy.MeanFCT)
	}
}

func TestLightlyLoadedFCTNearIdeal(t *testing.T) {
	// At very light load a flow should finish near size/trunk-rate.
	top, _ := UniformMesh(8, 21)
	w := testWorkload(8, 0.02)
	res, err := Simulate(top, w, DefaultSimConfig())
	if err != nil {
		t.Fatal(err)
	}
	ideal := w.MeanFlowBytes / DefaultSimConfig().TrunkBps
	if res.MeanFCT < ideal*0.5 || res.MeanFCT > ideal*4 {
		t.Fatalf("light-load FCT %v vs ideal %v", res.MeanFCT, ideal)
	}
}

func TestTransitUsedWhenDirectSaturated(t *testing.T) {
	// A single extremely hot pair on a uniform mesh must spill to transit
	// paths.
	blocks := 8
	top, _ := UniformMesh(blocks, 21)
	d := UniformDemand(blocks, 1e8)
	d[0][1] = 400e9 // far above the 3-trunk direct capacity
	w := Workload{Demand: d, MeanFlowBytes: 5e9, Duration: 3}
	res, err := Simulate(top, w, DefaultSimConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.TransitFraction == 0 {
		t.Fatal("no transit under direct saturation")
	}
}

// TestDCNTopologyEngineeringGains reproduces the §4.2 summary (from [47]):
// topology engineering on a skewed long-lived traffic matrix improves mean
// flow completion time (paper ≈10%) and achieved throughput (paper ≈30%)
// over a demand-oblivious uniform mesh.
func TestDCNTopologyEngineeringGains(t *testing.T) {
	cmp, err := CompareTopologies(ReferenceExperiment())
	if err != nil {
		t.Fatal(err)
	}
	if cmp.FCTImprovement < 0.08 {
		t.Errorf("FCT improvement = %.3f, want ≥ 0.08 (paper ≈0.10)", cmp.FCTImprovement)
	}
	if cmp.FCTImprovement > 0.6 {
		t.Errorf("FCT improvement = %.3f implausibly high", cmp.FCTImprovement)
	}
	if cmp.ThroughputGain < 0.20 || cmp.ThroughputGain > 0.45 {
		t.Errorf("throughput gain = %.3f, want ≈0.30", cmp.ThroughputGain)
	}
}

func TestUniformDemandNoEngineeringGain(t *testing.T) {
	// Sanity: with a uniform matrix the engineered topology is (nearly)
	// the uniform mesh, so gains must be small.
	blocks, uplinks := 8, 21
	demand := UniformDemand(blocks, 4e9)
	w := Workload{MeanFlowBytes: 20e9, Duration: 4}
	cmp, err := CompareTopologies(blocks, uplinks, demand, w, DefaultSimConfig())
	if err != nil {
		t.Fatal(err)
	}
	if cmp.ThroughputGain > 0.15 || cmp.ThroughputGain < -0.15 {
		t.Fatalf("uniform demand should not show large gains: %+v", cmp)
	}
}

func TestTotalDemand(t *testing.T) {
	d := UniformDemand(4, 2)
	if TotalDemand(d) != 24 {
		t.Fatalf("TotalDemand = %v", TotalDemand(d))
	}
}

func TestSkewedDemandProperties(t *testing.T) {
	d := SkewedDemand(10, 1e9, 4, 10, 3)
	hot := 0
	for i := range d {
		if d[i][i] != 0 {
			t.Fatal("self demand")
		}
		for j := range d[i] {
			if i != j && d[i][j] > 1e9 {
				hot++
			}
		}
	}
	if hot == 0 {
		t.Fatal("no hot pairs generated")
	}
}
