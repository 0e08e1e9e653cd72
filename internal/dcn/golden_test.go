package dcn

import (
	"testing"

	"lightwave/internal/par"
)

// Golden determinism contract for the flow simulator. The values below are
// the exact (hex-float, bit-for-bit) outputs of the original linear-scan /
// map-based engine, captured before the heap-indexed allocation-free
// rewrite. The rewrite is required to reproduce them exactly: every
// tie-break and floating-point accumulation order is part of the engine's
// contract, not an implementation detail. If an intentional behavior
// change ever invalidates these, re-pin them in the same commit and say so
// loudly in the commit message.

// goldenSmall is Simulate on UniformMesh(6, 15) with a uniform 15 GB/s
// demand (0.3 trunk per pair), 2 GB mean flows, 5 s horizon, default
// config.
var goldenSmall = SimResult{
	CompletedFlows:  1107,
	MeanFCT:         0x1.54208a549e2d2p-05,
	MedianFCT:       0x1.bb7bf25c98bcp-06,
	P99FCT:          0x1.9ce1842ba3567p-03,
	ThroughputBps:   0x1.ac0df31519c75p+38,
	TransitFraction: 0x1.ae7ba63d5de1cp-03,
}

// goldenReference is CompareTopologies(ReferenceExperiment()) — the §4.2
// engineered-vs-uniform comparison, both flow-level halves plus the fluid
// saturation throughputs.
var goldenReference = Comparison{
	Uniform: SimResult{
		CompletedFlows:  2333,
		MeanFCT:         0x1.6f23b47c64c8bp-01,
		MedianFCT:       0x1.013c12e6e4dp-01,
		P99FCT:          0x1.941d8d8c98547p+01,
		ThroughputBps:   0x1.6d549e4470da2p+42,
		TransitFraction: 0x1.6776d605e9889p-01,
	},
	Engineered: SimResult{
		CompletedFlows:  2720,
		MeanFCT:         0x1.1ea0f617021fbp-01,
		MedianFCT:       0x1.7536d12cca1acp-02,
		P99FCT:          0x1.67870e0205fc5p+01,
		ThroughputBps:   0x1.f6fcbaa247e08p+42,
		TransitFraction: 0x1.5817a6224a7e8p-03,
	},
	FCTImprovement: 0x1.c11c1e7a034ecp-03,
	ThroughputGain: 0x1.244ab0fd11c4cp-02,
	UniformBps:     0x1.27f3656d2caaep+43,
	EngineeredBps:  0x1.7c6d63971c3f9p+43,
}

// goldenSweep is Simulate swept over load (loadSweep) on UniformMesh(8,
// 21), uniform 1 GB/s demand shape, 2 GB mean flows, 4 s horizon, loads
// {0.1, 0.4, 0.8}.
var goldenSweepLoads = []float64{0.1, 0.4, 0.8}

var goldenSweep = []SimResult{
	{
		CompletedFlows:  1681,
		MeanFCT:         0x1.3ac40f7a82563p-05,
		MedianFCT:       0x1.c1151404a2ap-06,
		P99FCT:          0x1.7b6a60fe3b31ap-03,
		ThroughputBps:   0x1.77f69fd0d0563p+39,
		TransitFraction: 0x1.0c556f00e7082p-02,
	},
	{
		CompletedFlows:  6499,
		MeanFCT:         0x1.4516f5e0338e1p-05,
		MedianFCT:       0x1.c04c82569d8p-06,
		P99FCT:          0x1.7305d73739f33p-03,
		ThroughputBps:   0x1.74fae059556c8p+41,
		TransitFraction: 0x1.2fd8b180f4931p-02,
	},
	{
		CompletedFlows:  12894,
		MeanFCT:         0x1.591e8b720e005p-04,
		MedianFCT:       0x1.c8b6dfadf55ep-05,
		P99FCT:          0x1.b2c7803ab093cp-02,
		ThroughputBps:   0x1.6d1a12b0d2bfap+42,
		TransitFraction: 0x1.bf3beb0ec6a43p-03,
	},
}

func TestSimulateGoldenSmallWorkload(t *testing.T) {
	top, err := UniformMesh(6, 15)
	if err != nil {
		t.Fatal(err)
	}
	w := Workload{Demand: UniformDemand(6, 0.3*50e9), MeanFlowBytes: 2e9, Duration: 5}
	got, err := Simulate(top, w, DefaultSimConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got != goldenSmall {
		t.Fatalf("SimResult diverged from pre-rewrite golden:\n got %+v\nwant %+v", got, goldenSmall)
	}
}

func TestCompareTopologiesGoldenReference(t *testing.T) {
	if testing.Short() {
		t.Skip("reference experiment is heavyweight")
	}
	got, err := CompareTopologies(ReferenceExperiment())
	if err != nil {
		t.Fatal(err)
	}
	if got != goldenReference {
		t.Fatalf("Comparison diverged from pre-rewrite golden:\n got %+v\nwant %+v", got, goldenReference)
	}
}

// TestLoadSweepGoldenAcrossWorkerCounts is the sweep half of the contract:
// every point must match the pre-rewrite golden exactly at 1, 4, and 8
// workers. Running the package under `go test -cpu 1,4,8` additionally
// exercises the default GOMAXPROCS-sized pool against the same goldens.
func TestLoadSweepGoldenAcrossWorkerCounts(t *testing.T) {
	top, err := UniformMesh(8, 21)
	if err != nil {
		t.Fatal(err)
	}
	demand := UniformDemand(8, 1e9)
	w := Workload{MeanFlowBytes: 2e9, Duration: 4}
	check := func(label string) {
		pts, err := loadSweep(top, 21, demand, w, DefaultSimConfig(), goldenSweepLoads)
		if err != nil {
			t.Fatal(err)
		}
		for i, pt := range pts {
			if pt.Load != goldenSweepLoads[i] {
				t.Fatalf("%s: point %d load label = %v, want %v", label, i, pt.Load, goldenSweepLoads[i])
			}
			if pt.Result != goldenSweep[i] {
				t.Fatalf("%s: point %d diverged from pre-rewrite golden:\n got %+v\nwant %+v",
					label, i, pt.Result, goldenSweep[i])
			}
		}
	}
	check("default workers")
	prev := par.SetWorkers(1)
	defer par.SetWorkers(prev)
	for _, workers := range []int{1, 4, 8} {
		par.SetWorkers(workers)
		check("workers=1/4/8")
	}
}
