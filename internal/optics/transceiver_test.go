package optics

import (
	"errors"
	"testing"
)

func TestRoadmapBandwidthGrowth(t *testing.T) {
	// Fig 8: bandwidth grew 20× from 40G QSFP+ to 800G OSFP.
	rm := Roadmap()
	first, last := rm[0], rm[len(rm)-1]
	if ratio := last.TotalGbps() / first.TotalGbps(); ratio != 20 {
		t.Fatalf("bandwidth growth = %v×, want 20×", ratio)
	}
	if first.TotalGbps() != 40 || last.TotalGbps() != 800 {
		t.Fatalf("endpoints %v / %v Gbps", first.TotalGbps(), last.TotalGbps())
	}
}

func TestRoadmapEnergyEfficiencyImproves(t *testing.T) {
	// "continuous improvement in energy efficiency": W per Gbps must fall
	// monotonically through the roadmap.
	rm := Roadmap()
	prev := rm[0].PowerW / rm[0].TotalGbps()
	for _, g := range rm[1:] {
		eff := g.PowerW / g.TotalGbps()
		if eff >= prev {
			t.Fatalf("%s efficiency %.4f W/Gbps not better than predecessor %.4f", g.Name, eff, prev)
		}
		prev = eff
	}
}

func TestRoadmapGridsValidate(t *testing.T) {
	for _, g := range Roadmap() {
		if err := g.Grid.Validate(); err != nil {
			t.Errorf("%s: %v", g.Name, err)
		}
	}
}

func TestGenerationByName(t *testing.T) {
	g, err := GenerationByName("800G-bidi-CWDM8")
	if err != nil {
		t.Fatal(err)
	}
	if !g.Bidi || g.FibersPerModule != 1 || g.Grid.Lanes() != 8 {
		t.Fatalf("CWDM8 module = %+v", g)
	}
	if _, err := GenerationByName("nope"); err == nil {
		t.Fatal("unknown name accepted")
	}
}

func TestBidiModulesUseEML(t *testing.T) {
	// Appendix C.1: EMLs were critical for mitigating MPI in bidi links.
	for _, g := range Roadmap() {
		if g.Bidi && g.Laser != EML {
			t.Errorf("%s is bidi but uses %v", g.Name, g.Laser)
		}
	}
}

func TestBackwardCompatModes(t *testing.T) {
	g, _ := GenerationByName("2x400G-bidi-CWDM4")
	tr := NewTransceiver(g)
	want := map[RateCapability]bool{
		{100, PAM4}: true, {50, PAM4}: true, {25, NRZ}: true,
	}
	if len(tr.Modes) != len(want) {
		t.Fatalf("modes = %v", tr.Modes)
	}
	for _, m := range tr.Modes {
		if !want[m] {
			t.Errorf("unexpected mode %v", m)
		}
	}
}

func TestNegotiateAcrossGenerations(t *testing.T) {
	// §3.3.1: a 100G-per-lane module must interoperate with 25G NRZ legacy
	// gear and run 100G with its own generation.
	newGen, _ := GenerationByName("2x400G-bidi-CWDM4")
	oldGen, _ := GenerationByName("100G-CWDM4")
	a, b := NewTransceiver(newGen), NewTransceiver(oldGen)

	mode, err := a.Negotiate(b)
	if err != nil {
		t.Fatal(err)
	}
	if mode.LaneRateGbps != 25 || mode.Modulation != NRZ {
		t.Fatalf("cross-generation mode = %+v, want 25G NRZ", mode)
	}

	mode, err = a.Negotiate(NewTransceiver(newGen))
	if err != nil {
		t.Fatal(err)
	}
	if mode.LaneRateGbps != 100 || mode.Modulation != PAM4 {
		t.Fatalf("same-generation mode = %+v, want 100G PAM4", mode)
	}
}

func TestNegotiateOrderOfMagnitudeSpan(t *testing.T) {
	// §6: "we have maintained interoperability across an order of magnitude
	// difference in data rates (400 Gb/s vs. 40 Gb/s)" — the mode chain
	// must connect adjacent generations all the way down.
	rm := Roadmap()
	for i := 1; i < len(rm); i++ {
		a, b := NewTransceiver(rm[i-1]), NewTransceiver(rm[i])
		if _, err := a.Negotiate(b); err != nil {
			t.Errorf("generations %s and %s cannot interoperate", rm[i-1].Name, rm[i].Name)
		}
	}
}

func TestNegotiateIncompatible(t *testing.T) {
	a := &Transceiver{Modes: []RateCapability{{100, PAM4}}}
	b := &Transceiver{Modes: []RateCapability{{10, NRZ}}}
	if _, err := a.Negotiate(b); !errors.Is(err, ErrIncompatible) {
		t.Fatalf("err = %v", err)
	}
}

func TestModulationHelpers(t *testing.T) {
	if NRZ.BitsPerSymbol() != 1 || PAM4.BitsPerSymbol() != 2 {
		t.Fatal("bits per symbol wrong")
	}
	if NRZ.String() != "NRZ" || PAM4.String() != "PAM4" {
		t.Fatal("modulation names wrong")
	}
	if Modulation(5).String() == "" {
		t.Fatal("unknown modulation should still print")
	}
	if DML.String() != "DML" || EML.String() != "EML" {
		t.Fatal("laser names wrong")
	}
}

func TestCirculatorVariants(t *testing.T) {
	d, tc := DefaultCirculator(), TelecomCirculator()
	// The re-engineered part must beat the telecom part on both return loss
	// and crosstalk (§3.3.1).
	if d.ReturnLossDB >= tc.ReturnLossDB {
		t.Error("re-engineered circulator return loss not improved")
	}
	if d.CrosstalkDB >= tc.CrosstalkDB {
		t.Error("re-engineered circulator crosstalk not improved")
	}
}

// TotalGbps returns the module's aggregate bandwidth across all engines.
func (g Generation) TotalGbps() float64 {
	e := g.Engines
	if e == 0 {
		e = 1
	}
	return g.LaneRateGbps * float64(g.Grid.Lanes()) * float64(e)
}
