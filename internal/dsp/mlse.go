package dsp

import (
	"math"

	"lightwave/internal/sim"
)

// This file implements the MLSE equalizer of §3.3.1 as a real Viterbi
// sequence detector over a two-tap intersymbol-interference channel — the
// discrete-time model of chromatic-dispersion-induced pulse spreading. The
// Equalizer type in equalize.go is the budget-level abstraction; MLSE here
// is the signal-level implementation that justifies its RecoveryFraction.

// MLSE is a maximum-likelihood sequence estimator for a channel
// y[n] = H0·x[n] + H1·x[n−1] + noise, with H0+H1 = 1 (energy-normalized
// dispersion split).
type MLSE struct {
	H0, H1 float64
}

// NewMLSE returns a detector for the given ISI fraction: isi of the pulse
// energy arrives one symbol late (isi = 0 is a clean channel).
func NewMLSE(isi float64) MLSE {
	if isi < 0 {
		isi = 0
	}
	if isi > 0.5 {
		isi = 0.5
	}
	return MLSE{H0: 1 - isi, H1: isi}
}

// Detect runs the Viterbi algorithm over received samples y with the four
// PAM4 signal levels (in current units) and returns the detected symbol
// indices. States are the previous symbol (4 states, 16 branches per
// step).
func (m MLSE) Detect(y []float64, levels [4]float64) []uint8 {
	n := len(y)
	if n == 0 {
		return nil
	}
	const states = 4
	inf := math.Inf(1)
	metric := [states]float64{}
	// Unknown initial symbol: all states equally likely.
	backptr := make([][states]uint8, n)

	for i := 0; i < n; i++ {
		var next [states]float64
		for s := 0; s < states; s++ {
			next[s] = inf
		}
		for prev := 0; prev < states; prev++ {
			if math.IsInf(metric[prev], 1) {
				continue
			}
			for cur := 0; cur < states; cur++ {
				expect := m.H0*levels[cur] + m.H1*levels[prev]
				d := y[i] - expect
				cand := metric[prev] + d*d
				if cand < next[cur] {
					next[cur] = cand
					backptr[i][cur] = uint8(prev)
				}
			}
		}
		metric = next
	}

	// Traceback from the best final state.
	best := 0
	for s := 1; s < states; s++ {
		if metric[s] < metric[best] {
			best = s
		}
	}
	out := make([]uint8, n)
	cur := uint8(best)
	for i := n - 1; i >= 0; i-- {
		out[i] = cur
		cur = backptr[i][cur]
	}
	return out
}

// ISIConfig extends the Monte-Carlo configuration with a dispersion
// channel.
type ISIConfig struct {
	MonteCarloConfig
	// ISI is the fraction of pulse energy arriving one symbol late.
	ISI float64
	// UseMLSE selects Viterbi detection instead of symbol-by-symbol
	// slicing.
	UseMLSE bool
}

// MonteCarloISIBER measures the pre-FEC BER of a dispersive (two-tap ISI)
// channel with either a plain slicer or the MLSE detector. It demonstrates
// the equalizer's dispersion-penalty recovery at the waveform level.
func (r Receiver) MonteCarloISIBER(rxPowerDBm float64, cfg ISIConfig) MonteCarloResult {
	if cfg.Symbols <= 0 {
		cfg.Symbols = 100000
	}
	rng := cfg.Rand
	if rng == nil {
		rng = sim.NewRand(0x151)
	}
	pAvg := dbmToWatts(rxPowerDBm)
	lv := r.levels(pAvg)
	resp := r.ResponsivityAPerW
	var cur [4]float64
	for k := range cur {
		cur[k] = resp * lv[k]
	}
	ch := NewMLSE(cfg.ISI)

	tx := make([]uint8, cfg.Symbols)
	rxs := make([]float64, cfg.Symbols)
	prev := uint8(0)
	rin := r.rinLin()
	for n := 0; n < cfg.Symbols; n++ {
		k := uint8(rng.Intn(4))
		tx[n] = k
		sig := ch.H0*cur[k] + ch.H1*cur[prev]
		sigma := r.noiseSigmaA(lv[k], rin, 0)
		rxs[n] = sig + sigma*rng.NormFloat64()
		prev = k
	}

	var detected []uint8
	if cfg.UseMLSE {
		detected = ch.Detect(rxs, cur)
	} else {
		thr := r.thresholds(lv)
		detected = make([]uint8, cfg.Symbols)
		for n := range rxs {
			detected[n] = slice(rxs[n], thr)
		}
	}

	errs := 0
	for n := range tx {
		errs += popcount2(grayMap[tx[n]] ^ grayMap[detected[n]])
	}
	bits := 2 * cfg.Symbols
	return MonteCarloResult{BER: float64(errs) / float64(bits), BitErrors: errs, Bits: bits}
}
