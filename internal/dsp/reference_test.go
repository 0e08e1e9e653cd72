package dsp

import (
	"math"

	"lightwave/internal/fec"
)

// The pre-hoist bodies of the analytic receiver, kept verbatim as the
// reference TestBERMatchesReference holds Receiver.BER to, bit for bit:
// the four-level loop recomputed the RIN and MPI conversions (three Pow
// calls) per level.

func refNoiseSigmaA(r Receiver, pLevelW, pAvgW float64, mpi MPICondition) float64 {
	bw := 0.75 * r.SymbolRateGBd * 1e9
	th2 := r.ThermalSigmaA * r.ThermalSigmaA
	shot2 := 2 * electronCharge * r.ResponsivityAPerW * pLevelW * bw
	rinLin := math.Pow(10, r.RINdBPerHz/10)
	i := r.ResponsivityAPerW * pLevelW
	rin2 := rinLin * i * i * bw
	pInt := mpi.effectiveMPILin() * pAvgW
	mpi2 := 2 * r.PolarizationOverlap * r.ResponsivityAPerW * r.ResponsivityAPerW * pLevelW * pInt
	return math.Sqrt(th2 + shot2 + rin2 + mpi2)
}

func refBER(r Receiver, rxPowerDBm float64, mpi MPICondition) float64 {
	pAvg := dbmToWatts(rxPowerDBm)
	lv := r.levels(pAvg)
	d := (lv[3] - lv[0]) / 3
	half := r.ResponsivityAPerW * d / 2
	ser := 0.0
	for k := 0; k < 4; k++ {
		sigma := refNoiseSigmaA(r, lv[k], pAvg, mpi)
		q := fec.QFunc(half / sigma)
		if k == 0 || k == 3 {
			ser += q
		} else {
			ser += 2 * q
		}
	}
	ser /= 4
	return ser / 2
}
