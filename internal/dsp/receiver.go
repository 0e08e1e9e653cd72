// Package dsp models the digital-signal-processing engine of the paper's
// bidi WDM transceivers (§3.3.2, §4.1.2): a PAM4 intensity-modulation /
// direct-detection receiver with thermal, shot, RIN and multi-path-
// interference (MPI) beat noise, the Optical Interference Mitigation (OIM)
// notch-filter algorithm [66], an MLSE-style dispersion equalizer hook, and
// both analytic and Monte-Carlo bit-error-ratio evaluation (the "simulated"
// and "measured" curves of Fig 11).
package dsp

import (
	"errors"
	"math"

	"lightwave/internal/fec"
)

// Physical constants.
const electronCharge = 1.602176634e-19 // C

// Receiver parameterizes one PAM4 optical receiver lane.
type Receiver struct {
	// SymbolRateGBd is the line symbol rate (25 GBd for 50 Gb/s PAM4).
	SymbolRateGBd float64
	// ResponsivityAPerW is the photodiode responsivity.
	ResponsivityAPerW float64
	// ExtinctionRatioDB is the transmitter extinction ratio P3/P0.
	ExtinctionRatioDB float64
	// ThermalSigmaA is the receiver's input-referred thermal noise current
	// (standard deviation, A). Use Calibrate to fit it to a sensitivity.
	ThermalSigmaA float64
	// RINdBPerHz is the laser relative intensity noise (negative, dB/Hz).
	RINdBPerHz float64
	// PolarizationOverlap is the average field overlap between signal and
	// MPI interferer (0.5 for fully scrambled polarization).
	PolarizationOverlap float64
}

// DefaultReceiver returns a 50 Gb/s PAM4 lane receiver calibrated so that a
// clean (MPI-free) channel reaches the KP4 threshold 2e-4 at −9 dBm, the
// 200G-class sensitivity used by the paper's first bidi ML modules.
func DefaultReceiver() Receiver {
	r := Receiver{
		SymbolRateGBd:       25,
		ResponsivityAPerW:   0.8,
		ExtinctionRatioDB:   4.5,
		RINdBPerHz:          -145,
		PolarizationOverlap: 0.8,
	}
	r.Calibrate(-9, fec.KP4Threshold)
	return r
}

// MPICondition describes the interference environment of a measurement.
type MPICondition struct {
	// MPIDB is the interferer-to-signal power ratio (negative dB).
	// Use NoMPI for a clean channel.
	MPIDB float64
	// OIM enables the interference-mitigation notch filter.
	OIM bool
	// OIMSuppressionDB is how much interferer power the notch removes;
	// zero means DefaultOIMSuppressionDB.
	OIMSuppressionDB float64
}

// NoMPI is the MPIDB value for a clean channel.
const NoMPI = -200.0

// DefaultOIMSuppressionDB is the calibrated suppression of the
// reconstruct-and-subtract notch filter.
const DefaultOIMSuppressionDB = 12.0

// PreparedReceiver is a Receiver with everything that depends on its
// configuration alone derived once, so a BER evaluation pays only for its
// received power and MPI. Callers that evaluate one receiver often keep one.
type PreparedReceiver struct {
	resp       float64 // photodiode responsivity R, A/W
	er         float64 // extinction ratio P3/P0, linear
	rin        float64 // laser relative intensity noise, 1/Hz
	bw         float64 // receiver noise bandwidth, Hz
	th2        float64 // thermal noise variance, A²
	shotK      float64 // 2qR: shot-noise variance per W·Hz
	beatK      float64 // 2ηR²: MPI beat-noise variance per W²
	oimDefault float64 // interferer power the default OIM notch leaves
}

// Prepare derives the receiver's configuration-only constants.
func (r Receiver) Prepare() PreparedReceiver {
	return PreparedReceiver{
		resp:       r.ResponsivityAPerW,
		er:         math.Pow(10, r.ExtinctionRatioDB/10),
		rin:        math.Pow(10, r.RINdBPerHz/10),
		bw:         0.75 * r.SymbolRateGBd * 1e9,
		th2:        r.ThermalSigmaA * r.ThermalSigmaA,
		shotK:      2 * electronCharge * r.ResponsivityAPerW,
		beatK:      2 * r.PolarizationOverlap * r.ResponsivityAPerW * r.ResponsivityAPerW,
		oimDefault: math.Pow(10, -DefaultOIMSuppressionDB/10),
	}
}

// effectiveMPILin returns the post-mitigation interferer-to-signal ratio of
// c in linear units.
func (p *PreparedReceiver) effectiveMPILin(c MPICondition) float64 {
	if c.MPIDB <= NoMPI {
		return 0
	}
	lin := math.Pow(10, c.MPIDB/10)
	if c.OIM {
		if c.OIMSuppressionDB == 0 {
			lin *= p.oimDefault
		} else {
			lin *= math.Pow(10, -c.OIMSuppressionDB/10)
		}
	}
	return lin
}

// levels returns the four received optical power levels (W) for an average
// received power pAvg (W), equally spaced with the configured extinction
// ratio.
func (p *PreparedReceiver) levels(pAvgW float64) [4]float64 {
	p0 := 2 * pAvgW / (1 + p.er)
	p3 := p.er * p0
	d := (p3 - p0) / 3
	return [4]float64{p0, p0 + d, p0 + 2*d, p3}
}

// noiseSigmaA returns the total noise current standard deviation when the
// received symbol sits at optical power pLevel and the interferer power is
// pIntW (effectiveMPILin × average signal power; 0 on a clean channel).
func (p *PreparedReceiver) noiseSigmaA(pLevelW, pIntW float64) float64 {
	shot2 := p.shotK * pLevelW * p.bw
	i := p.resp * pLevelW
	rin2 := p.rin * i * i * p.bw
	// MPI carrier-to-carrier beat noise: σ² = 2·η·R²·P_level·P_int
	// (signal-spontaneous-style beating of two fields on a square-law
	// detector).
	mpi2 := p.beatK * pLevelW * pIntW
	return math.Sqrt(p.th2 + shot2 + rin2 + mpi2)
}

// BER returns the analytic pre-FEC bit error ratio of a Gray-coded PAM4
// lane at the given received average power under the given MPI condition
// (the dashed/solid model curves of Fig 11a).
//
//lwlint:hotpath
func (p *PreparedReceiver) BER(rxPowerDBm float64, mpi MPICondition) float64 {
	pAvg := dbmToWatts(rxPowerDBm)
	lv := p.levels(pAvg)
	d := (lv[3] - lv[0]) / 3 // level spacing in optical power
	half := p.resp * d / 2
	pInt := p.effectiveMPILin(mpi) * pAvg
	ser := 0.0
	for k := 0; k < 4; k++ {
		q := fec.QFunc(half / p.noiseSigmaA(lv[k], pInt))
		// Inner levels can err both up and down.
		if k == 0 || k == 3 {
			ser += q
		} else {
			ser += 2 * q
		}
	}
	ser /= 4
	// Gray coding: one bit flips per adjacent-level symbol error, 2 bits
	// per symbol.
	return ser / 2
}

// BER returns PreparedReceiver.BER of the prepared receiver.
func (r Receiver) BER(rxPowerDBm float64, mpi MPICondition) float64 {
	p := r.Prepare()
	return p.BER(rxPowerDBm, mpi)
}

// Sensitivity returns the received power (dBm) at which the lane reaches
// targetBER under mpi: SensitivityThrough with no decoder ahead of the
// target.
func (r Receiver) Sensitivity(targetBER float64, mpi MPICondition) (float64, error) {
	return r.SensitivityThrough(targetBER, mpi, nil)
}

// SensitivityThrough returns the received power (dBm) at which the lane's
// BER, passed through the post-detection transfer (an inner decoder's
// output-vs-input BER curve; nil is the identity), reaches targetBER under
// mpi, found by bisection over [−30, 10] dBm. It returns an error if the
// target is unreachable within that range.
func (r Receiver) SensitivityThrough(targetBER float64, mpi MPICondition, transfer func(float64) float64) (float64, error) {
	pr := r.Prepare()
	berAt := func(p float64) float64 {
		if transfer == nil {
			return pr.BER(p, mpi)
		}
		return transfer(pr.BER(p, mpi))
	}
	lo, hi := -30.0, 10.0
	if berAt(hi) > targetBER {
		return 0, errors.New("dsp: target BER unreachable (noise floor)")
	}
	if berAt(lo) < targetBER {
		return lo, nil
	}
	for i := 0; i < 100; i++ {
		mid := (lo + hi) / 2
		if berAt(mid) > targetBER {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2, nil
}

// Calibrate fits ThermalSigmaA so a clean channel reaches targetBER at
// sensitivityDBm.
func (r *Receiver) Calibrate(sensitivityDBm, targetBER float64) {
	lo, hi := 1e-9, 1e-3
	clean := MPICondition{MPIDB: NoMPI}
	for i := 0; i < 200; i++ {
		mid := math.Sqrt(lo * hi)
		r.ThermalSigmaA = mid
		if r.BER(sensitivityDBm, clean) > targetBER {
			hi = mid
		} else {
			lo = mid
		}
	}
	r.ThermalSigmaA = math.Sqrt(lo * hi)
}

// PostFECBER runs the analytic receiver through a FEC transfer chain.
//
//lwlint:ignore deadexport the oracle core's and this package's admission-equivalence tests hold the MaxInputBER threshold to
func (r Receiver) PostFECBER(rxPowerDBm float64, mpi MPICondition, stack fec.Concatenated) float64 {
	return stack.Transfer(r.BER(rxPowerDBm, mpi))
}

func dbmToWatts(dbm float64) float64 {
	return 1e-3 * math.Pow(10, dbm/10)
}
