package dsp

// Equalizer models the receive-side nonlinear equalization of §3.3.1: the
// chromatic-dispersion and chirp impairments over the 80 nm CWDM range are
// "mitigated by managing frequency variations (chirp) in the laser and the
// modulator along with the use of nonlinear equalizers based on maximum
// likelihood sequence estimation (MLSE)". At the level of abstraction of
// the link budget, the equalizer recovers a fixed fraction of the
// unequalized dispersion penalty at the cost of a small noise enhancement.
type Equalizer struct {
	// Taps is the MLSE memory (states = 4^Taps for PAM4).
	Taps int
	// RecoveryFraction is the share of the raw dispersion penalty the
	// equalizer removes.
	RecoveryFraction float64
	// NoiseEnhancementDB is the SNR cost of equalization.
	NoiseEnhancementDB float64
}

// DefaultEqualizer returns the production MLSE setting: a short-memory
// sequence detector recovering ~70% of the dispersion penalty for ~0.2 dB
// of noise enhancement.
func DefaultEqualizer() Equalizer {
	return Equalizer{Taps: 2, RecoveryFraction: 0.7, NoiseEnhancementDB: 0.2}
}

// ResidualPenaltyDB maps a raw (unequalized) dispersion penalty to the
// penalty remaining after equalization, including the noise-enhancement
// cost. It never returns a value worse than the raw penalty.
func (e Equalizer) ResidualPenaltyDB(rawDB float64) float64 {
	if rawDB <= 0 {
		return 0
	}
	res := rawDB*(1-e.RecoveryFraction) + e.NoiseEnhancementDB
	if res > rawDB {
		return rawDB
	}
	return res
}
