package optics

import (
	"fmt"
	"math"
	"testing"
)

func TestCWDM4Grid(t *testing.T) {
	g := CWDM4()
	if g.Lanes() != 4 {
		t.Fatalf("lanes = %d", g.Lanes())
	}
	if g.SpacingNM != 20 {
		t.Errorf("spacing = %v", g.SpacingNM)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.Channels[2] != 1311 {
		t.Errorf("channel 2 = %v, want 1311", g.Channels[2])
	}
}

func TestCWDM8Grid(t *testing.T) {
	g := CWDM8()
	if g.Lanes() != 8 {
		t.Fatalf("lanes = %d", g.Lanes())
	}
	if g.SpacingNM != 10 {
		t.Errorf("spacing = %v", g.SpacingNM)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestGridsShareSpectralWidth(t *testing.T) {
	// §3.3.1: CWDM8 doubles the lanes "within the same spectral width
	// (80nm) as a standard CWDM4 transceiver".
	if w4, w8 := CWDM4().SpectralWidthNM(), CWDM8().SpectralWidthNM(); w4 != w8 {
		t.Fatalf("CWDM4 width %v != CWDM8 width %v", w4, w8)
	}
	if w := CWDM4().SpectralWidthNM(); w != 80 {
		t.Fatalf("spectral width = %v, want 80", w)
	}
}

func TestGridsOverlapForInterop(t *testing.T) {
	if !CWDM4().Overlaps(CWDM8()) {
		t.Fatal("CWDM4 and CWDM8 share no channels; interop impossible")
	}
}

func TestGridValidateRejectsBadSpacing(t *testing.T) {
	g := Grid{Name: "bad", SpacingNM: 20, Channels: []float64{1271, 1301}}
	if err := g.Validate(); err == nil {
		t.Fatal("inconsistent spacing accepted")
	}
	g2 := Grid{Name: "bad2", SpacingNM: 20, Channels: []float64{1291, 1271}}
	if err := g2.Validate(); err == nil {
		t.Fatal("descending channels accepted")
	}
}

func TestEmptyGrid(t *testing.T) {
	var g Grid
	if g.SpectralWidthNM() != 0 || g.Lanes() != 0 {
		t.Fatal("empty grid not zero")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDispersionZeroAt1310(t *testing.T) {
	if d := DispersionPsPerNMKM(1310); math.Abs(d) > 1e-9 {
		t.Fatalf("D(1310) = %v, want 0", d)
	}
	// Negative below, positive above the zero-dispersion wavelength.
	if DispersionPsPerNMKM(1271) >= 0 {
		t.Error("D(1271) should be negative")
	}
	if DispersionPsPerNMKM(1341) <= 0 {
		t.Error("D(1341) should be positive")
	}
	// Band edge magnitude is a few ps/nm/km.
	if d := math.Abs(DispersionPsPerNMKM(1271)); d < 1 || d > 6 {
		t.Errorf("D(1271) = %v ps/nm/km, implausible", d)
	}
}

// SpectralWidthNM returns the span from the lowest to the highest channel
// center plus one spacing (the occupied spectral width).
func (g Grid) SpectralWidthNM() float64 {
	if len(g.Channels) == 0 {
		return 0
	}
	return g.Channels[len(g.Channels)-1] - g.Channels[0] + g.SpacingNM
}

// Validate checks channel ordering and spacing consistency.
func (g Grid) Validate() error {
	for i := 1; i < len(g.Channels); i++ {
		if g.Channels[i] <= g.Channels[i-1] {
			return fmt.Errorf("optics: grid %s channels not ascending", g.Name)
		}
		if d := g.Channels[i] - g.Channels[i-1]; d != g.SpacingNM {
			return fmt.Errorf("optics: grid %s spacing %g != %g", g.Name, d, g.SpacingNM)
		}
	}
	return nil
}

// Overlaps reports whether two grids share any channel center (interop
// across generations requires a shared grid subset; §3.3.1 "backward
// compatibility ... careful design of the wavelength grid").
func (g Grid) Overlaps(o Grid) bool {
	for _, a := range g.Channels {
		for _, b := range o.Channels {
			if a == b {
				return true
			}
		}
	}
	return false
}
