package dsp

import (
	"math"
	"testing"

	"lightwave/internal/sim"
)

func TestNewMLSEClamps(t *testing.T) {
	if m := NewMLSE(-0.1); m.H1 != 0 {
		t.Fatalf("H1 = %v", m.H1)
	}
	if m := NewMLSE(0.9); m.H1 != 0.5 {
		t.Fatalf("H1 = %v", m.H1)
	}
	m := NewMLSE(0.2)
	if m.H0+m.H1 != 1 {
		t.Fatal("taps not normalized")
	}
}

func TestMLSEDetectNoiselessPerfect(t *testing.T) {
	// On a noiseless ISI channel the Viterbi detector must be exact.
	m := NewMLSE(0.3)
	levels := [4]float64{1, 2, 3, 4}
	rng := sim.NewRand(1)
	n := 2000
	tx := make([]uint8, n)
	y := make([]float64, n)
	prev := uint8(0)
	for i := 0; i < n; i++ {
		k := uint8(rng.Intn(4))
		tx[i] = k
		y[i] = m.H0*levels[k] + m.H1*levels[prev]
		prev = k
	}
	got := m.Detect(y, levels)
	for i := range tx {
		if got[i] != tx[i] {
			t.Fatalf("symbol %d detected %d, want %d", i, got[i], tx[i])
		}
	}
}

func TestMLSEDetectEmpty(t *testing.T) {
	if NewMLSE(0.2).Detect(nil, [4]float64{1, 2, 3, 4}) != nil {
		t.Fatal("empty input should give nil")
	}
}

func TestISIDegradesSlicer(t *testing.T) {
	r := DefaultReceiver()
	clean := r.MonteCarloISIBER(-10, ISIConfig{
		MonteCarloConfig: MonteCarloConfig{Symbols: 150000, Rand: sim.NewRand(2)},
		ISI:              0,
	})
	dispersed := r.MonteCarloISIBER(-10, ISIConfig{
		MonteCarloConfig: MonteCarloConfig{Symbols: 150000, Rand: sim.NewRand(2)},
		ISI:              0.2,
	})
	if dispersed.BER <= clean.BER {
		t.Fatalf("ISI did not degrade slicer: %.3g vs %.3g", clean.BER, dispersed.BER)
	}
}

func TestMLSERecoversISIPenalty(t *testing.T) {
	// §3.3.1: MLSE-based nonlinear equalizers mitigate the dispersion
	// impairment. At 20% ISI the Viterbi detector must recover most of the
	// slicer's loss.
	r := DefaultReceiver()
	mk := func(useMLSE bool) float64 {
		return r.MonteCarloISIBER(-9.5, ISIConfig{
			MonteCarloConfig: MonteCarloConfig{Symbols: 200000, Rand: sim.NewRand(3)},
			ISI:              0.2,
			UseMLSE:          useMLSE,
		}).BER
	}
	slicer := mk(false)
	mlse := mk(true)
	if slicer < 1e-4 {
		t.Fatalf("test setup: slicer BER %.3g too clean to compare", slicer)
	}
	if mlse >= slicer/3 {
		t.Fatalf("MLSE gain too small: slicer %.3g, MLSE %.3g", slicer, mlse)
	}
}

func TestMLSEMatchesSlicerOnCleanChannel(t *testing.T) {
	// With no ISI the sequence detector must not be (much) worse than the
	// slicer.
	r := DefaultReceiver()
	mk := func(useMLSE bool) float64 {
		return r.MonteCarloISIBER(-11, ISIConfig{
			MonteCarloConfig: MonteCarloConfig{Symbols: 100000, Rand: sim.NewRand(4)},
			ISI:              0,
			UseMLSE:          useMLSE,
		}).BER
	}
	slicer := mk(false)
	mlse := mk(true)
	if mlse > slicer*1.1 {
		t.Fatalf("MLSE worse than slicer on clean channel: %.3g vs %.3g", mlse, slicer)
	}
}

func TestMLSEJustifiesEqualizerRecoveryFraction(t *testing.T) {
	// The budget-level Equalizer claims ~70% penalty recovery; the
	// waveform-level MLSE should recover at least that share of the BER
	// degradation (in log-BER terms) at a realistic ISI level.
	r := DefaultReceiver()
	run := func(isi float64, mlse bool) float64 {
		return r.MonteCarloISIBER(-9.5, ISIConfig{
			MonteCarloConfig: MonteCarloConfig{Symbols: 200000, Rand: sim.NewRand(5)},
			ISI:              isi, UseMLSE: mlse,
		}).BER
	}
	clean := run(0, false)
	impaired := run(0.15, false)
	equalized := run(0.15, true)
	if !(clean < equalized && equalized < impaired) {
		t.Fatalf("ordering broken: clean %.3g, equalized %.3g, impaired %.3g",
			clean, equalized, impaired)
	}
}

// The MLSE equalizer of §3.3.1 as a real Viterbi sequence detector over a
// two-tap intersymbol-interference channel — the discrete-time model of
// chromatic-dispersion-induced pulse spreading. The Equalizer type in
// equalize.go is the budget-level abstraction the link budget uses; MLSE
// here is the signal-level oracle the tests above hold its
// RecoveryFraction to. Nothing outside tests runs it.

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
	pr := r.Prepare()
	pAvg := dbmToWatts(rxPowerDBm)
	lv := pr.levels(pAvg)
	resp := r.ResponsivityAPerW
	var cur [4]float64
	for k := range cur {
		cur[k] = resp * lv[k]
	}
	ch := NewMLSE(cfg.ISI)

	tx := make([]uint8, cfg.Symbols)
	rxs := make([]float64, cfg.Symbols)
	prev := uint8(0)
	for n := 0; n < cfg.Symbols; n++ {
		k := uint8(rng.Intn(4))
		tx[n] = k
		sig := ch.H0*cur[k] + ch.H1*cur[prev]
		sigma := pr.noiseSigmaA(lv[k], 0)
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
