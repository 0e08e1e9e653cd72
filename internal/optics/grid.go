// Package optics models the photonic layer of the lightwave fabric (§3.1,
// §3.3, Appendices B and C.1): coarse-WDM wavelength grids, the transceiver
// generations of Fig 8, optical circulators, and the optical link-budget
// engine that the control plane uses to validate circuits before bringing
// them up. All powers are in dBm and all losses/ratios in dB unless noted.
package optics

// Grid is a coarse wavelength-division-multiplexing grid: a set of channel
// center wavelengths within the O-band around 1300 nm.
type Grid struct {
	Name      string
	SpacingNM float64
	Channels  []float64 // center wavelengths, nm
}

// CWDM4 returns the standard 4-channel, 20 nm spacing grid used by the DCN
// transceivers (1271/1291/1311/1331 nm).
func CWDM4() Grid {
	return Grid{
		Name:      "CWDM4",
		SpacingNM: 20,
		Channels:  []float64{1271, 1291, 1311, 1331},
	}
}

// CWDM8 returns the paper's custom 8-channel, 10 nm spacing grid: twice the
// lanes of CWDM4 in the same 80 nm spectral width (§3.3.1).
func CWDM8() Grid {
	return Grid{
		Name:      "CWDM8",
		SpacingNM: 10,
		Channels:  []float64{1271, 1281, 1291, 1301, 1311, 1321, 1331, 1341},
	}
}

// Lanes returns the number of wavelength channels.
func (g Grid) Lanes() int { return len(g.Channels) }

// DispersionPsPerNMKM returns the chromatic dispersion coefficient of
// standard single-mode fiber at wavelength λ (nm) using the usual G.652
// Sellmeier slope approximation around the 1310 nm zero-dispersion point.
func DispersionPsPerNMKM(lambdaNM float64) float64 {
	const s0 = 0.092 // ps/(nm²·km) dispersion slope
	const l0 = 1310.0
	return s0 / 4 * (lambdaNM - l0*l0*l0/(lambdaNM*lambdaNM))
}
