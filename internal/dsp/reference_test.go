package dsp

import (
	"math"

	"lightwave/internal/fec"
)

// Two retired generations of the analytic receiver, kept verbatim as the
// references TestBERMatchesReference holds Receiver.BER and
// PreparedReceiver.BER to, bit for bit.
//
// The newer one derived nothing ahead of time: every BER call converted
// the extinction ratio, the RIN and the default OIM suppression from dB
// (three Pow calls) and rebuilt the noise bandwidth and the shot- and
// beat-noise prefactors per level. Its helpers keep their old receivers so
// the older body below still reads as it did.

func (c MPICondition) effectiveMPILin() float64 {
	if c.MPIDB <= NoMPI {
		return 0
	}
	lin := math.Pow(10, c.MPIDB/10)
	if c.OIM {
		s := c.OIMSuppressionDB
		if s == 0 {
			s = DefaultOIMSuppressionDB
		}
		lin *= math.Pow(10, -s/10)
	}
	return lin
}

func (r Receiver) levels(pAvgW float64) [4]float64 {
	er := math.Pow(10, r.ExtinctionRatioDB/10)
	p0 := 2 * pAvgW / (1 + er)
	p3 := er * p0
	d := (p3 - p0) / 3
	return [4]float64{p0, p0 + d, p0 + 2*d, p3}
}

func (r Receiver) rinLin() float64 {
	return math.Pow(10, r.RINdBPerHz/10)
}

func (r Receiver) noiseSigmaA(pLevelW, rinLin, pIntW float64) float64 {
	bw := 0.75 * r.SymbolRateGBd * 1e9 // receiver noise bandwidth, Hz
	th2 := r.ThermalSigmaA * r.ThermalSigmaA
	shot2 := 2 * electronCharge * r.ResponsivityAPerW * pLevelW * bw
	i := r.ResponsivityAPerW * pLevelW
	rin2 := rinLin * i * i * bw
	mpi2 := 2 * r.PolarizationOverlap * r.ResponsivityAPerW * r.ResponsivityAPerW * pLevelW * pIntW
	return math.Sqrt(th2 + shot2 + rin2 + mpi2)
}

func refUnpreparedBER(r Receiver, rxPowerDBm float64, mpi MPICondition) float64 {
	pAvg := dbmToWatts(rxPowerDBm)
	lv := r.levels(pAvg)
	d := (lv[3] - lv[0]) / 3 // level spacing in optical power
	half := r.ResponsivityAPerW * d / 2
	rin := r.rinLin()
	pInt := mpi.effectiveMPILin() * pAvg
	ser := 0.0
	for k := 0; k < 4; k++ {
		sigma := r.noiseSigmaA(lv[k], rin, pInt)
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

// The older one, before the RIN and MPI conversions were hoisted out of
// the four-level loop (three Pow calls per level).

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
