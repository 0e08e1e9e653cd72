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

func TestBERMatchesReference(t *testing.T) {
	r := DefaultReceiver()
	n := 0
	fig11Grid(func(p float64, mpi MPICondition) {
		n++
		got, want := r.BER(p, mpi), refBER(r, p, mpi)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("BER(%v dBm, %+v) = %v, reference %v", p, mpi, got, want)
		}
	})
	if n < 40000 {
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
