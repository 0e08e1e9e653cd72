package optics

import (
	"fmt"
	"math"
	"testing"
)

func TestQualifyRoadmapAllPass(t *testing.T) {
	// Every production generation must qualify at every supported rate on
	// the reference deployment link — the §3.3.1 interop guarantee.
	reports, err := QualifyRoadmap(DefaultQualSpec())
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != len(Roadmap()) {
		t.Fatalf("%d reports", len(reports))
	}
	for _, r := range reports {
		if !r.Pass {
			for _, m := range r.Modes {
				t.Logf("%s @ %gG %s: margin %.2f dB pass=%v",
					r.Generation, m.Mode.LaneRateGbps, m.Mode.Modulation, m.Budget.MarginDB, m.Pass)
			}
			t.Errorf("%s failed qualification", r.Generation)
		}
	}
}

func TestQualifyLegacyModesEasier(t *testing.T) {
	// Within one module, lower line rates must have at least the margin of
	// the native rate (relaxed sensitivity + smaller dispersion penalty).
	gen, _ := GenerationByName("2x400G-bidi-CWDM4")
	rep, err := Qualify(gen, DefaultQualSpec())
	if err != nil {
		t.Fatal(err)
	}
	var native, legacy float64
	for _, m := range rep.Modes {
		if m.Mode.LaneRateGbps == gen.LaneRateGbps {
			native = m.Budget.MarginDB
		}
		if m.Mode.LaneRateGbps == 25 {
			legacy = m.Budget.MarginDB
		}
	}
	if legacy <= native {
		t.Fatalf("legacy 25G margin %.2f not above native %.2f", legacy, native)
	}
}

func TestQualifyFailsOnImpossibleSpec(t *testing.T) {
	gen, _ := GenerationByName("2x200G-bidi-CWDM4")
	spec := DefaultQualSpec()
	spec.FiberKM = 200 // absurd reach
	rep, err := Qualify(gen, spec)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pass {
		t.Fatal("module qualified over 200 km")
	}
}

func TestQualifyModeCount(t *testing.T) {
	gen, _ := GenerationByName("2x400G-bidi-CWDM4")
	rep, err := Qualify(gen, DefaultQualSpec())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Modes) != 3 {
		t.Fatalf("%d modes qualified, want 3 (100G/50G/25G)", len(rep.Modes))
	}
}

// Module qualification (§3.3.1: backward compatibility required
// "programmable modules and DSP blocks that can run at multiple line rates
// along with the corresponding qualification testing for all supported
// rates"). Qualify exercises every operating mode of a module over the
// reference deployment link and checks the optical budget closes with the
// required margin. Only tests run it: it holds every roadmap generation
// and its legacy modes to the deployment link budget.

// QualSpec is the reference link a module must close.
type QualSpec struct {
	// OCSLossDB is the worst-case cross-connect loss.
	OCSLossDB float64
	// OCSReturnDB is the worst-case port return loss.
	OCSReturnDB float64
	// FiberKM is the qualification reach.
	FiberKM float64
	// MinMarginDB is the required end-of-life margin.
	MinMarginDB float64
}

// DefaultQualSpec returns the pod-deployment qualification point: a 3 dB
// OCS path (the §3.2.1 design ceiling), spec-limit return loss, 1 km
// reach, 1 dB margin.
func DefaultQualSpec() QualSpec {
	return QualSpec{OCSLossDB: 3.0, OCSReturnDB: -38, FiberKM: 1.0, MinMarginDB: 1.0}
}

// ModeReport is the qualification result of one operating mode.
type ModeReport struct {
	Mode   RateCapability
	Budget Budget
	Pass   bool
}

// QualReport is the qualification result of one module.
type QualReport struct {
	Generation string
	Modes      []ModeReport
	Pass       bool
}

// Qualify runs the module's full backward-compatible mode set against the
// spec. Lower line rates have easier sensitivity requirements (the
// dispersion penalty shrinks quadratically with symbol rate), so a module
// that closes its native rate must also close the legacy rates — exactly
// what makes in-place interop with old fabrics safe.
func Qualify(gen Generation, spec QualSpec) (QualReport, error) {
	t := NewTransceiver(gen)
	rep := QualReport{Generation: gen.Name, Pass: true}
	for _, mode := range t.Modes {
		// Evaluate the budget at this mode's lane rate by swapping the
		// generation's rate fields (the analog front end is programmable).
		g := gen
		g.LaneRateGbps = mode.LaneRateGbps
		g.Modulation = mode.Modulation
		// Legacy rates relax the sensitivity requirement by the SNR-per-
		// bit difference: halving the rate buys ≈1.5 optical dB.
		g.SensitivityDBm = gen.SensitivityDBm - 1.5*math.Log2(gen.LaneRateGbps/mode.LaneRateGbps)
		a := NewTransceiver(g)
		bcv := NewTransceiver(g)
		var link *Link
		if gen.Bidi {
			link = NewBidiLink(a, bcv, DefaultCirculator(), spec.OCSLossDB, spec.OCSReturnDB, spec.FiberKM)
		} else {
			link = NewDuplexLink(a, bcv, spec.OCSLossDB, spec.OCSReturnDB, spec.FiberKM)
		}
		bud, err := link.BudgetTowardB()
		if err != nil {
			return rep, fmt.Errorf("optics: qualifying %s at %g G: %w", gen.Name, mode.LaneRateGbps, err)
		}
		m := ModeReport{Mode: mode, Budget: bud, Pass: bud.MarginDB >= spec.MinMarginDB}
		if !m.Pass {
			rep.Pass = false
		}
		rep.Modes = append(rep.Modes, m)
	}
	return rep, nil
}

// QualifyRoadmap qualifies every generation of the roadmap against the
// spec.
func QualifyRoadmap(spec QualSpec) ([]QualReport, error) {
	var out []QualReport
	for _, g := range Roadmap() {
		r, err := Qualify(g, spec)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}
