package dsp

import (
	"testing"

	"lightwave/internal/par"
)

func fleetCfg() FleetBERConfig {
	cfg := DefaultFleetBERConfig()
	cfg.SensitivityDBm = -12 // stand-in sensitivity; tests avoid the fec dep
	return cfg
}

func TestFleetBERDeterministicAcrossWorkerCounts(t *testing.T) {
	rx := DefaultReceiver()
	prev := par.SetWorkers(1)
	defer par.SetWorkers(prev)
	base := rx.FleetBER(fleetCfg())
	for _, w := range []int{2, 4, 8} {
		par.SetWorkers(w)
		got := rx.FleetBER(fleetCfg())
		if got.Worst != base.Worst {
			t.Fatalf("workers=%d: worst %g != %g", w, got.Worst, base.Worst)
		}
		for p := range got.BERs {
			if got.BERs[p] != base.BERs[p] {
				t.Fatalf("workers=%d: port %d BER differs", w, p)
			}
		}
	}
}

func TestFleetBERSeedChangesFleet(t *testing.T) {
	rx := DefaultReceiver()
	a := rx.FleetBER(fleetCfg())
	cfg := fleetCfg()
	cfg.Seed = 99
	b := rx.FleetBER(cfg)
	same := 0
	for p := range a.BERs {
		if a.BERs[p] == b.BERs[p] {
			same++
		}
	}
	if same == len(a.BERs) {
		t.Fatal("different seeds produced an identical fleet")
	}
}

func TestFleetBERMarginFloorRespected(t *testing.T) {
	rx := DefaultReceiver()
	cfg := fleetCfg()
	cfg.Ports = 512
	res := rx.FleetBER(cfg)
	if len(res.BERs) != 512 {
		t.Fatalf("got %d ports", len(res.BERs))
	}
	// Every port runs at or above the floor margin, so no port can be worse
	// than a port pinned at the floor with the worst plausible MPI.
	floorBER := rx.BER(cfg.SensitivityDBm+marginFloorDB, MPICondition{MPIDB: mpiMeanDB + 6*mpiSigmaDB, OIM: cfg.OIM})
	if res.Worst > floorBER {
		t.Fatalf("worst %g exceeds floor-margin bound %g", res.Worst, floorBER)
	}
	if res.OverThreshold(res.Worst) != 0 || res.OverThreshold(0) == 0 {
		t.Fatal("OverThreshold accounting inconsistent")
	}
}
