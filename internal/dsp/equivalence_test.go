package dsp

import (
	"math"
	"testing"

	"lightwave/internal/fec"
)

// fig11Grid walks the (received power, MPI, OIM) space of Fig 11 — and
// well past it on both axes — calling visit at every point.
func fig11Grid(visit func(rxPowerDBm float64, mpi MPICondition)) {
	mpis := []float64{NoMPI, NoMPI - 1}
	for m := -45.0; m <= -15; m += 0.5 {
		mpis = append(mpis, m)
	}
	for p := -20.0; p <= 4; p += 0.125 {
		for _, m := range mpis {
			visit(p, MPICondition{MPIDB: m})
			for _, suppression := range []float64{0, 6, 20} {
				visit(p, MPICondition{MPIDB: m, OIM: true, OIMSuppressionDB: suppression})
			}
		}
	}
}

// TestBERMatchesReference holds both entry points of the one BER body — a
// receiver prepared once and evaluated across the grid, and Receiver.BER,
// which prepares per call — to both retired bodies, bit for bit, on the
// default receiver and on one with every configuration field moved.
func TestBERMatchesReference(t *testing.T) {
	odd := DefaultReceiver()
	odd.ExtinctionRatioDB, odd.RINdBPerHz, odd.PolarizationOverlap = 6, -138, 0.5
	odd.SymbolRateGBd, odd.ResponsivityAPerW = 53.125, 0.65
	odd.Calibrate(-6, fec.KP4Threshold)
	n := 0
	for _, r := range []Receiver{DefaultReceiver(), odd} {
		pr := r.Prepare()
		fig11Grid(func(p float64, mpi MPICondition) {
			n++
			want := refBER(r, p, mpi)
			if w := refUnpreparedBER(r, p, mpi); math.Float64bits(w) != math.Float64bits(want) {
				t.Fatalf("the two references disagree at (%v dBm, %+v): %v vs %v", p, mpi, w, want)
			}
			for _, got := range []float64{pr.BER(p, mpi), r.BER(p, mpi)} {
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%+v: BER(%v dBm, %+v) = %v, reference %v", r, p, mpi, got, want)
				}
			}
		})
	}
	if n < 80000 {
		t.Fatalf("grid visited only %d points", n)
	}
}

// TestAdmissionThresholdMatchesPostFEC is the receiver-level half of the
// predicate equivalence the fabric relies on: comparing the pre-FEC BER
// with fec's MaxInputBER decides exactly what comparing PostFECBER with the
// target decided, at every point of the grid (which spans both verdicts).
func TestAdmissionThresholdMatchesPostFEC(t *testing.T) {
	const target = 1e-12
	r := DefaultReceiver()
	stack := fec.NewConcatenated()
	thr := stack.MaxInputBER(target)
	admitted, rejected := 0, 0
	fig11Grid(func(p float64, mpi MPICondition) {
		oldReject := r.PostFECBER(p, mpi, stack) > target
		newReject := r.BER(p, mpi) > thr
		if oldReject != newReject {
			t.Errorf("(%v dBm, %+v): PostFECBER > target is %v, BER > MaxInputBER is %v",
				p, mpi, oldReject, newReject)
		}
		if oldReject {
			rejected++
		} else {
			admitted++
		}
	})
	if admitted == 0 || rejected == 0 {
		t.Fatalf("grid is one-sided: %d admitted, %d rejected", admitted, rejected)
	}
}
