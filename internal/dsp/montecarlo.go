package dsp

import (
	"math"

	"lightwave/internal/par"
	"lightwave/internal/sim"
)

// This file is the waveform-level Monte-Carlo counterpart of the analytic
// receiver: it generates Gray-coded PAM4 symbols, adds the MPI beat tone and
// Gaussian noise, optionally runs the OIM reconstruct-and-subtract notch
// filter, slices, and counts bit errors — the "measured" curves of Fig 11b.

// grayMap maps symbol level index to its 2-bit Gray label.
var grayMap = [4]uint8{0b00, 0b01, 0b11, 0b10}

// MonteCarloConfig controls a waveform simulation run.
type MonteCarloConfig struct {
	// Symbols is the number of PAM4 symbols to simulate.
	Symbols int
	// MPIOffsetHz is the carrier frequency offset between signal and
	// interferer; the beat appears as a narrow tone at this frequency
	// (§4.1.2: "the dominant carrier to carrier beating noise ... exhibits
	// a unique narrow-band spectral characteristic").
	MPIOffsetHz float64
	// Rand supplies the randomness; nil uses a fixed seed. The simulation
	// fans out over GOMAXPROCS workers internally, with each symbol shard
	// on its own substream: results depend only on the seed, not on the
	// worker count.
	Rand *sim.Rand
}

// MonteCarloResult summarizes a run.
type MonteCarloResult struct {
	BER       float64
	BitErrors int
	Bits      int
	// EstimatedOffsetHz is the beat frequency the OIM stage locked to
	// (zero when OIM is off or no tone was found).
	EstimatedOffsetHz float64
}

// MonteCarloBER simulates the lane at rxPowerDBm under mpi and returns the
// measured pre-FEC BER.
func (r Receiver) MonteCarloBER(rxPowerDBm float64, mpi MPICondition, cfg MonteCarloConfig) MonteCarloResult {
	if cfg.Symbols <= 0 {
		cfg.Symbols = 100000
	}
	rng := cfg.Rand
	if rng == nil {
		rng = sim.NewRand(0xD5B)
	}
	if cfg.MPIOffsetHz == 0 {
		cfg.MPIOffsetHz = 2.3e9
	}

	pr := r.Prepare()
	pAvg := dbmToWatts(rxPowerDBm)
	lv := pr.levels(pAvg)
	resp := r.ResponsivityAPerW
	ts := 1 / (r.SymbolRateGBd * 1e9)

	// Interferer optical power (pre-mitigation: OIM happens digitally in
	// this simulation, not via effectiveMPILin).
	pInt := 0.0
	if mpi.MPIDB > NoMPI {
		pInt = math.Pow(10, mpi.MPIDB/10) * pAvg
	}

	tx := make([]uint8, cfg.Symbols)    // transmitted level index
	rxs := make([]float64, cfg.Symbols) // received current samples
	phase := rng.Float64() * 2 * math.Pi
	// Per-level noise sigmas are symbol-independent; precompute so shards
	// don't redo the math per sample.
	var sigmas [4]float64
	for k := range sigmas {
		sigmas[k] = pr.noiseSigmaA(lv[k], 0)
	}
	// Waveform synthesis is the hot loop: shard the symbol range across the
	// worker pool. Each shard draws from its own substream of the caller's
	// generator and writes a disjoint slice of tx/rxs, so the waveform is
	// bit-identical at any worker count.
	seed := rng.Uint64()
	par.MonteCarlo("dsp_mc_ber", cfg.Symbols, seed, func(sh par.Shard) struct{} {
		srng := sh.Rng
		for n := sh.Start; n < sh.End; n++ {
			k := uint8(srng.Intn(4))
			tx[n] = k
			pk := lv[k]
			sig := resp * pk
			// MPI beat: 2·R·sqrt(η·P_k·P_int)·cos(2πΔf·t + φ).
			beat := 0.0
			if pInt > 0 {
				amp := 2 * resp * math.Sqrt(r.PolarizationOverlap*pk*pInt)
				beat = amp * math.Cos(2*math.Pi*cfg.MPIOffsetHz*float64(n)*ts+phase)
			}
			// Gaussian noise: thermal + shot + RIN at this level (no MPI
			// term — the beat is added explicitly above).
			rxs[n] = sig + beat + sigmas[k]*srng.NormFloat64()
		}
		return struct{}{}
	})

	var estHz float64
	if mpi.OIM && pInt > 0 {
		estHz = r.oimMitigate(rxs, lv, resp, ts)
	}

	// Slice and count, again sharded; per-shard error counts are merged in
	// shard order (integer sums, so the total is exact either way).
	thr := r.thresholds(lv)
	errs := 0
	for _, e := range par.MonteCarlo("dsp_mc_slice", cfg.Symbols, seed, func(sh par.Shard) int {
		shErrs := 0
		for n := sh.Start; n < sh.End; n++ {
			k := slice(rxs[n], thr)
			diff := grayMap[tx[n]] ^ grayMap[k]
			shErrs += popcount2(diff)
		}
		return shErrs
	}) {
		errs += e
	}
	bits := 2 * cfg.Symbols
	return MonteCarloResult{
		BER:               float64(errs) / float64(bits),
		BitErrors:         errs,
		Bits:              bits,
		EstimatedOffsetHz: estHz,
	}
}

// thresholds returns the three PAM4 slicer thresholds in current units.
func (r Receiver) thresholds(lv [4]float64) [3]float64 {
	var t [3]float64
	for i := 0; i < 3; i++ {
		t[i] = r.ResponsivityAPerW * (lv[i] + lv[i+1]) / 2
	}
	return t
}

func slice(v float64, thr [3]float64) uint8 {
	switch {
	case v < thr[0]:
		return 0
	case v < thr[1]:
		return 1
	case v < thr[2]:
		return 2
	default:
		return 3
	}
}

func popcount2(b uint8) int {
	return int(b&1) + int(b>>1&1)
}

// oimMitigate implements the Optical Interference Mitigation algorithm of
// [66] on the sample stream in place and returns the estimated beat
// frequency: (1) form the slicer error signal, (2) locate the dominant
// narrowband tone by scanning a Goertzel bank over the error signal, (3)
// estimate the tone's amplitude and phase by correlation, (4) reconstruct
// and subtract it.
func (r Receiver) oimMitigate(rxs []float64, lv [4]float64, resp, ts float64) float64 {
	thr := r.thresholds(lv)
	errSig := make([]float64, len(rxs))
	for n, v := range rxs {
		k := slice(v, thr)
		errSig[n] = v - resp*lv[k]
	}

	f := estimateTone(errSig, ts)

	// Correlate to get amplitude and phase, then subtract. The beat
	// amplitude is level dependent (∝ sqrt(P_k)); estimate the mean
	// component and scale per slice decision.
	var c, s float64
	for n, e := range errSig {
		w := 2 * math.Pi * f * float64(n) * ts
		c += e * math.Cos(w)
		s += e * math.Sin(w)
	}
	c, s = 2*c/float64(len(errSig)), 2*s/float64(len(errSig))
	amp := math.Hypot(c, s)
	phase := math.Atan2(-s, c)
	if amp == 0 {
		return f
	}
	// The beat amplitude per symbol is ∝ sqrt(P_k); the correlation above
	// estimated the mean over levels, so normalize by E[sqrt(P_k)].
	meanSqrt := (math.Sqrt(lv[0]) + math.Sqrt(lv[1]) + math.Sqrt(lv[2]) + math.Sqrt(lv[3])) / 4
	for n := range rxs {
		k := slice(rxs[n], thr)
		scale := math.Sqrt(lv[k]) / meanSqrt
		rxs[n] -= scale * amp * math.Cos(2*math.Pi*f*float64(n)*ts+phase)
	}
	return f
}

// estimateTone locates the dominant narrowband tone in x by a multi-stage
// Goertzel zoom: each stage scans around the previous estimate with a step
// no wider than half of the previous stage's resolution bin, so the search
// stays inside the main lobe as the window grows.
func estimateTone(x []float64, ts float64) float64 {
	nyq := 0.5 / ts
	// Stage 1: short window, full-band scan at half-bin steps.
	n1 := len(x)
	if n1 > 4096 {
		n1 = 4096
	}
	w1 := x[:n1]
	bin1 := 1 / (float64(n1) * ts)
	best, bestP := 0.0, -1.0
	for f := bin1 / 2; f < nyq; f += bin1 / 2 {
		if p := tonePower(w1, f, ts); p > bestP {
			best, bestP = f, p
		}
	}
	// Zoom stages with growing windows.
	prevBin := bin1
	for _, n := range []int{32768, len(x)} {
		if n > len(x) {
			n = len(x)
		}
		w := x[:n]
		bin := 1 / (float64(n) * ts)
		lo, hi := best-prevBin, best+prevBin
		if lo < 0 {
			lo = 0
		}
		bestP = -1
		for f := lo; f <= hi; f += bin / 2 {
			if p := tonePower(w, f, ts); p > bestP {
				best, bestP = f, p
			}
		}
		prevBin = bin
		if n == len(x) {
			break
		}
	}
	// Final polish: ternary search inside the full-length main lobe.
	lo, hi := best-prevBin/2, best+prevBin/2
	for i := 0; i < 40; i++ {
		m1 := lo + (hi-lo)/3
		m2 := hi - (hi-lo)/3
		if tonePower(x, m1, ts) < tonePower(x, m2, ts) {
			lo = m1
		} else {
			hi = m2
		}
	}
	return (lo + hi) / 2
}

// tonePower returns the Goertzel power of the signal at frequency f.
func tonePower(x []float64, f, ts float64) float64 {
	w := 2 * math.Pi * f * ts
	coeff := 2 * math.Cos(w)
	var s0, s1, s2 float64
	for _, v := range x {
		s0 = v + coeff*s1 - s2
		s2, s1 = s1, s0
	}
	return s1*s1 + s2*s2 - coeff*s1*s2
}
